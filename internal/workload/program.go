// Package workload synthesizes instruction traces with the control-flow
// idioms the z15 branch predictor is built for: deeply warm loop nests,
// shared functions with call/return-like branch pairs, multi-target
// indirect branches, history-correlated conditionals, and LSPR-style
// large-instruction-footprint transaction mixes (paper §I, §II).
//
// IBM's LSPR traces are proprietary, so this package is the substitute
// substrate documented in DESIGN.md §5: a small program IR (basic
// blocks wired with behavioral branches) plus an interpreter that emits
// architecturally valid trace records. Every generator is seeded and
// deterministic.
package workload

import (
	"fmt"

	"zbp/internal/hashx"
	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// dirFn decides the direction of a conditional branch at execution time.
type dirFn func(e *Exec) bool

// chooseFn selects the taken-target of a block with n targets,
// returning its position in the block's target list.
type chooseFn func(e *Exec, n int) int

// Target is anything that resolves to a block at Build time: a
// BlockRef (already-created block) or a *Label (forward reference
// bound later).
type Target interface {
	resolve() (int, error)
}

// node is one laid-out basic block: zero or more pad instructions
// followed by at most one branch. Its pad lengths and branch targets
// live in the program's shared columns, at pad0 and tgt0. A node
// executed when not taken, or after a fallthrough, is always the next
// one, and the branch is the last brLen bytes before end.
type node struct {
	addr zarch.Addr
	end  zarch.Addr // address one past the last byte of the block

	pad0, nPad int32 // pad lengths at pads[pad0:pad0+nPad]
	tgt0, nTgt int32 // targets at tgts/tgtIdx[tgt0:tgt0+nTgt]

	hasBranch bool
	brLen     uint8
	brKind    zarch.BranchKind
	isCall    bool // push the NSIA's node on the interpreter stack when taken
	isReturn  bool // target comes from the interpreter stack
	dir       dirFn
	choose    chooseFn
}

// Program is an executable synthetic program laid out in columns:
// one node per block, every block's pad lengths in pads, and every
// branch target as both its address (tgts, what a record carries) and
// its node index (tgtIdx, where the interpreter goes).
type Program struct {
	nodes  []node
	pads   []uint8
	tgts   []zarch.Addr
	tgtIdx []int32
	entry  int
	// slots is the number of behavioral-state slots the program's
	// branch closures use; each Exec carries its own slot array, so
	// several interpreters can share one Program.
	slots int
}

// Blocks returns the number of basic blocks in the program.
func (p *Program) Blocks() int { return len(p.nodes) }

// Footprint returns the byte extent of the laid-out code.
func (p *Program) Footprint() int {
	if len(p.nodes) == 0 {
		return 0
	}
	return int(p.nodes[len(p.nodes)-1].end - p.nodes[0].addr)
}

// Builder lays out blocks at monotonically increasing addresses and
// wires branch behaviour between them. A block's branch must be wired
// while the block is still the most recently created one (the branch
// occupies layout space); branch *targets* may be forward references
// via labels, resolved at Build. Pad lengths and target references
// are appended to one column each, and labels are handed out from a
// slab, so construction allocates per column, not per block.
type Builder struct {
	nodes  []node
	pads   []uint8
	refs   []Target
	labels []Label // current slab; replaced, never grown, when full
	cursor zarch.Addr
	rng    *hashx.Rand
	err    error
	slots  int
}

// labelSlab is how many labels one slab holds.
const labelSlab = 256

// newSlot allocates one behavioral-state slot. Branch closures must
// keep their mutable state in Exec.slot[s] rather than captured
// variables, so the state is per-interpreter and resettable.
func (b *Builder) newSlot() int {
	s := b.slots
	b.slots++
	return s
}

// BlockRef names a created block.
type BlockRef struct {
	b   *Builder
	idx int
}

// Addr returns the entry address of the block.
func (r BlockRef) Addr() zarch.Addr { return r.b.nodes[r.idx].addr }

func (r BlockRef) resolve() (int, error) { return r.idx, nil }

// Label is a forward-declared branch target, bound to a block with
// Builder.Bind before Build.
type Label struct {
	bound int // node index, -1 until bound
}

func (l *Label) resolve() (int, error) {
	if l.bound < 0 {
		return 0, fmt.Errorf("workload: unbound label")
	}
	return l.bound, nil
}

// NewBuilder returns a Builder placing code from base, with rng used
// for pad-instruction length selection.
func NewBuilder(base zarch.Addr, seed uint64) *Builder {
	if base == 0 || !base.HalfwordAligned() {
		panic("workload: builder base must be nonzero and halfword aligned")
	}
	return &Builder{cursor: base, rng: hashx.New(seed)}
}

// NewLabel declares a forward branch target. A full slab is replaced
// rather than grown, so the labels already handed out stay valid.
func (b *Builder) NewLabel() *Label {
	if len(b.labels) == cap(b.labels) {
		b.labels = make([]Label, 0, labelSlab)
	}
	b.labels = append(b.labels, Label{bound: -1})
	return &b.labels[len(b.labels)-1]
}

// Bind attaches label to blk.
func (b *Builder) Bind(l *Label, blk BlockRef) {
	if l.bound != -1 {
		b.fail(fmt.Errorf("workload: label bound twice"))
		return
	}
	l.bound = blk.idx
}

// Cursor moves the layout cursor forward to addr. Moving backward or to
// a misaligned address is recorded as a build error.
func (b *Builder) Cursor(addr zarch.Addr) {
	if addr < b.cursor || !addr.HalfwordAligned() {
		b.fail(fmt.Errorf("workload: bad cursor move %s -> %s", b.cursor, addr))
		return
	}
	b.cursor = addr
}

// Gap advances the cursor by n bytes (rounded up to alignment).
func (b *Builder) Gap(n int) { b.Cursor(b.cursor + zarch.Addr((n+1)&^1)) }

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Block creates a basic block with roughly padBytes of non-branch
// instructions (instruction lengths drawn from {2,4,6}, averaging ~4-5
// bytes as on real z code). The block initially has no branch; wire one
// with the BlockRef terminator methods or leave it as a fallthrough.
func (b *Builder) Block(padBytes int) BlockRef {
	n := node{addr: b.cursor, end: b.cursor, pad0: int32(len(b.pads))}
	remaining := padBytes
	for remaining >= 2 {
		var ln uint8
		switch remaining {
		case 2:
			ln = 2
		case 4:
			ln = 4
		default:
			ln = []uint8{2, 4, 4, 6, 6, 6}[b.rng.Intn(6)]
			if int(ln) > remaining {
				ln = uint8(remaining &^ 1)
			}
		}
		b.pads = append(b.pads, ln)
		n.end += zarch.Addr(ln)
		remaining -= int(ln)
	}
	n.nPad = int32(len(b.pads)) - n.pad0
	b.cursor = n.end
	b.nodes = append(b.nodes, n)
	return BlockRef{b: b, idx: len(b.nodes) - 1}
}

// setBranch appends a branch to the block, which must still be the
// most recently created one (its bytes sit right after the pads).
func (r BlockRef) setBranch(kind zarch.BranchKind, ln uint8, dir dirFn, choose chooseFn, tgts ...Target) {
	b := r.b
	n := &b.nodes[r.idx]
	if n.hasBranch {
		b.fail(fmt.Errorf("workload: block at %s already has a branch", n.addr))
		return
	}
	if r.idx != len(b.nodes)-1 {
		b.fail(fmt.Errorf("workload: branch wired to non-current block at %s", n.addr))
		return
	}
	n.hasBranch = true
	n.brLen = ln
	n.brKind = kind
	n.dir = dir
	n.choose = choose
	n.tgt0 = int32(len(b.refs))
	n.nTgt = int32(len(tgts))
	b.refs = append(b.refs, tgts...)
	n.end += zarch.Addr(ln)
	b.cursor = n.end
}

func chooseFirst(*Exec, int) int { return 0 }

// Jump ends the block with an unconditional relative branch to target.
func (r BlockRef) Jump(target Target) {
	r.setBranch(zarch.KindUncondRel, 4,
		func(*Exec) bool { return true }, chooseFirst, target)
}

// Loop ends the block with a count-based loop branch to target: taken
// count-1 times, then not taken once, repeating. count must be >= 1.
func (r BlockRef) Loop(count int, target Target) {
	if count < 1 {
		r.b.fail(fmt.Errorf("workload: Loop count %d < 1", count))
		return
	}
	slot := r.b.newSlot()
	r.setBranch(zarch.KindLoop, 4,
		func(e *Exec) bool {
			c := &e.slot[slot]
			*c++
			if *c >= int64(count) {
				*c = 0
				return false
			}
			return true
		}, chooseFirst, target)
}

// CondPattern ends the block with a conditional relative branch whose
// direction follows the repeating pattern (true = taken to target).
func (r BlockRef) CondPattern(pattern []bool, target Target) {
	if len(pattern) == 0 {
		r.b.fail(fmt.Errorf("workload: empty CondPattern"))
		return
	}
	pat := append([]bool(nil), pattern...)
	slot := r.b.newSlot()
	r.setBranch(zarch.KindCondRel, 4,
		func(e *Exec) bool {
			i := &e.slot[slot]
			v := pat[*i]
			*i = (*i + 1) % int64(len(pat))
			return v
		}, chooseFirst, target)
}

// CondBias ends the block with a conditional relative branch taken with
// probability p (using the interpreter's seeded rng).
func (r BlockRef) CondBias(p float64, target Target) {
	r.setBranch(zarch.KindCondRel, 4,
		func(e *Exec) bool { return e.rng.Bool(p) }, chooseFirst, target)
}

// CondLag ends the block with a conditional branch whose direction
// equals the outcome of the lag-th most recent conditional branch
// (global history). Such branches defeat a plain BHT but are learnable
// by history-indexed predictors (TAGE) and by the perceptron when the
// correlation is a single sparse bit (paper §V).
func (r BlockRef) CondLag(lag int, target Target) {
	if lag < 1 || lag > histDepth {
		r.b.fail(fmt.Errorf("workload: CondLag lag %d out of range", lag))
		return
	}
	r.setBranch(zarch.KindCondRel, 4,
		func(e *Exec) bool { return e.histBit(lag) }, chooseFirst, target)
}

// CondXOR ends the block with a conditional branch whose direction is
// the XOR of the outcomes at the given history lags.
func (r BlockRef) CondXOR(lags []int, target Target) {
	for _, l := range lags {
		if l < 1 || l > histDepth {
			r.b.fail(fmt.Errorf("workload: CondXOR lag %d out of range", l))
			return
		}
	}
	ls := append([]int(nil), lags...)
	r.setBranch(zarch.KindCondRel, 4,
		func(e *Exec) bool {
			v := false
			for _, l := range ls {
				v = v != e.histBit(l)
			}
			return v
		}, chooseFirst, target)
}

// Call ends the block with an unconditional relative branch to target
// that behaves like a call: the interpreter pushes the NSIA, and a
// later Return pops it. The z/Architecture has no call instruction;
// this reproduces the emergent pattern the CRS heuristic detects
// (paper §VI).
func (r BlockRef) Call(target Target) {
	r.setBranch(zarch.KindUncondRel, 6,
		func(*Exec) bool { return true }, chooseFirst, target)
	r.b.nodes[r.idx].isCall = true
}

// CallInd is Call with an indirect branch (register-computed target).
func (r BlockRef) CallInd(target Target) {
	r.setBranch(zarch.KindUncondInd, 2,
		func(*Exec) bool { return true }, chooseFirst, target)
	r.b.nodes[r.idx].isCall = true
}

// Return ends the block with an unconditional indirect branch to the
// most recent pushed NSIA (a z-style register return).
func (r BlockRef) Return() {
	r.setBranch(zarch.KindUncondInd, 2,
		func(*Exec) bool { return true }, nil)
	r.b.nodes[r.idx].isReturn = true
}

// TargetChooser selects among the targets of a multi-target branch.
type TargetChooser uint8

// Multi-target selection policies.
const (
	// ChooseRoundRobin cycles through targets in order.
	ChooseRoundRobin TargetChooser = iota
	// ChooseRandom selects uniformly at random.
	ChooseRandom
	// ChoosePath selects as a function of the recent taken-branch path,
	// so a path-indexed predictor (CTB) can learn the mapping.
	ChoosePath
)

// Switch ends the block with an unconditional indirect multi-target
// branch over targets, selected per chooser.
func (r BlockRef) Switch(targets []Target, chooser TargetChooser) {
	if len(targets) == 0 {
		r.b.fail(fmt.Errorf("workload: empty Switch"))
		return
	}
	slot := r.b.newSlot()
	r.setBranch(zarch.KindUncondInd, 2,
		func(*Exec) bool { return true },
		func(e *Exec, n int) int {
			switch chooser {
			case ChooseRandom:
				return e.rng.Intn(n)
			case ChoosePath:
				// Correlate with the targets 4 and 3 taken branches
				// back (lag 11 wraps around recentTgt's 8-entry ring):
				// both inside a 9-deep path history (z13 and the
				// pre-z15 CTB index), not beyond it in the 17-deep
				// regime that motivated the z15 CTB's GPV index
				// (paper §VI).
				k := uint64(e.recentTgt(4))>>4 ^ uint64(e.recentTgt(11))>>6
				return int(k % uint64(n))
			default:
				i := &e.slot[slot]
				k := int(*i) % n
				*i++
				return k
			}
		}, targets...)
}

// SwitchWeighted ends the block with an unconditional indirect
// multi-target branch whose targets are drawn randomly with the given
// relative weights (e.g. Zipf-distributed transaction dispatch).
func (r BlockRef) SwitchWeighted(targets []Target, weights []int) {
	if len(targets) == 0 || len(targets) != len(weights) {
		r.b.fail(fmt.Errorf("workload: SwitchWeighted needs matching non-empty targets/weights"))
		return
	}
	cum := make([]int, len(weights))
	total := 0
	for i, w := range weights {
		if w <= 0 {
			r.b.fail(fmt.Errorf("workload: SwitchWeighted weight %d <= 0", w))
			return
		}
		total += w
		cum[i] = total
	}
	r.setBranch(zarch.KindUncondInd, 2,
		func(*Exec) bool { return true },
		func(e *Exec, _ int) int {
			v := e.rng.Intn(total)
			lo, hi := 0, len(cum)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] <= v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}, targets...)
}

// Build validates the layout, resolves forward references and returns
// the executable Program entered at entry. The Program takes over the
// builder's columns, so the Builder is not used after Build.
func (b *Builder) Build(entry BlockRef) (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("workload: empty program")
	}
	nodes := b.nodes
	p := &Program{
		nodes:  nodes,
		pads:   b.pads,
		tgts:   make([]zarch.Addr, len(b.refs)),
		tgtIdx: make([]int32, len(b.refs)),
		entry:  entry.idx,
		slots:  b.slots,
	}
	for i := range nodes {
		n := &nodes[i]
		for k := n.tgt0; k < n.tgt0+n.nTgt; k++ {
			j, err := b.refs[k].resolve()
			if err != nil {
				return nil, fmt.Errorf("workload: block at %s: %w", n.addr, err)
			}
			p.tgts[k] = nodes[j].addr
			p.tgtIdx[k] = int32(j)
		}
		// Layout is monotonic, so the next node is the only one that
		// can start where this block ends.
		last := i == len(nodes)-1
		if n.isCall && (last || nodes[i+1].addr != n.end) {
			// The NSIA pushed by a call must itself be a block entry so
			// the matching Return can resume there.
			return nil, fmt.Errorf("workload: call at %s has non-block NSIA %s", n.end-zarch.Addr(n.brLen), n.end)
		}
		if !n.hasBranch || n.brKind.Conditional() {
			if last {
				return nil, fmt.Errorf("workload: block at %s falls off the program", n.addr)
			}
			if nodes[i+1].addr != n.end {
				return nil, fmt.Errorf("workload: block at %s falls through to %s but successor is at %s",
					n.addr, n.end, nodes[i+1].addr)
			}
		}
	}
	return p, nil
}

// MustBuild is Build that panics on error, for generators whose
// structure is statically correct.
func (b *Builder) MustBuild(entry BlockRef) *Program {
	p, err := b.Build(entry)
	if err != nil {
		panic(err)
	}
	return p
}

// histDepth is how many conditional-branch outcomes the interpreter
// remembers for CondLag/CondXOR behaviours.
const histDepth = 64

// Exec interprets a Program, implementing trace.Source. Each Exec is an
// independent architectural context with its own rng, call stack and
// branch history.
type Exec struct {
	p   *Program
	rng *hashx.Rand

	cur    int // current node
	padPos int // next pad instruction, an index into the program's pads
	padAdr zarch.Addr

	stack []int32 // node index of each pending call's NSIA
	// slot holds the per-interpreter behavioral state of the program's
	// branch closures (loop counters, pattern positions, round-robin
	// indices), indexed by the slot ids the Builder allocated.
	slot []int64
	hist uint64 // bitvector of recent conditional outcomes, bit 0 newest
	// tgtRing holds the most recent taken-branch targets; ChoosePath
	// correlates with a couple of them at small lags -- shallow path
	// history, the regime a GPV-indexed changing target buffer is built
	// for (paper §VI).
	tgtRing [8]zarch.Addr
	tgtPos  int
}

// recentTgt returns the lag-th most recent taken-branch target (lag 1 =
// newest) for lags up to the ring's 8 entries. A larger lag wraps
// around the ring: recentTgt(11) returns the target 3 taken branches
// back.
func (e *Exec) recentTgt(lag int) zarch.Addr {
	return e.tgtRing[(e.tgtPos-(lag-1)+2*len(e.tgtRing))%len(e.tgtRing)]
}

// NewExec returns an interpreter over p with the given rng seed.
func NewExec(p *Program, seed uint64) *Exec {
	e := &Exec{p: p, rng: hashx.New(seed), slot: make([]int64, p.slots)}
	e.enter(p.entry)
	return e
}

func (e *Exec) histBit(lag int) bool { return e.hist>>(lag-1)&1 == 1 }

func (e *Exec) pushHist(taken bool) {
	e.hist <<= 1
	if taken {
		e.hist |= 1
	}
}

func (e *Exec) enter(idx int) {
	n := &e.p.nodes[idx]
	e.cur = idx
	e.padPos = int(n.pad0)
	e.padAdr = n.addr
}

// Next implements trace.Source; the stream is unbounded.
func (e *Exec) Next() (trace.Rec, bool) {
	for {
		p := e.p
		n := &p.nodes[e.cur]
		if e.padPos < int(n.pad0+n.nPad) {
			ln := p.pads[e.padPos]
			r := trace.Rec{Addr: e.padAdr, Meta: trace.RecMeta(ln, 0, false)}
			e.padPos++
			e.padAdr += zarch.Addr(ln)
			return r, true
		}
		next := e.cur + 1
		if n.hasBranch {
			taken := n.dir(e)
			var target zarch.Addr
			if taken {
				if n.isReturn {
					if len(e.stack) > 0 {
						next = int(e.stack[len(e.stack)-1])
						e.stack = e.stack[:len(e.stack)-1]
					} else {
						// Defensive: structured generators never underflow.
						next = p.entry
					}
					target = p.nodes[next].addr
				} else {
					k := int(n.tgt0) + n.choose(e, int(n.nTgt))
					next = int(p.tgtIdx[k])
					target = p.tgts[k]
				}
				if n.isCall {
					// Build checked that the NSIA starts the next node.
					e.stack = append(e.stack, int32(e.cur+1))
					if len(e.stack) > 256 {
						// Bound runaway recursion in ill-formed generators.
						e.stack = e.stack[1:]
					}
				}
			}
			if n.brKind.Conditional() {
				e.pushHist(taken)
			}
			r := trace.NewRec(n.end-zarch.Addr(n.brLen), n.brLen, n.brKind, taken, target, 0)
			if taken {
				e.tgtPos = (e.tgtPos + 1) % len(e.tgtRing)
				e.tgtRing[e.tgtPos] = target
			}
			e.enter(next)
			return r, true
		}
		// Pure fallthrough block: move on without emitting.
		e.enter(next)
	}
}

// Multiplex round-robins between sources in fixed slices of records,
// stamping each source's records with its index as CtxID. It models
// coarse OS-style dispatching of independent address spaces and is how
// context-switch-triggered BTB2 prefetch paths get exercised.
type Multiplex struct {
	srcs  []trace.Source
	slice int
	cur   int
	left  int
}

// NewMultiplex interleaves srcs with the given slice length.
func NewMultiplex(srcs []trace.Source, slice int) *Multiplex {
	if len(srcs) == 0 || slice <= 0 {
		panic("workload: NewMultiplex needs sources and a positive slice")
	}
	return &Multiplex{srcs: srcs, slice: slice, left: slice}
}

// Next implements trace.Source.
func (m *Multiplex) Next() (trace.Rec, bool) {
	for tries := 0; tries < len(m.srcs); tries++ {
		if m.left == 0 {
			m.cur = (m.cur + 1) % len(m.srcs)
			m.left = m.slice
		}
		r, ok := m.srcs[m.cur].Next()
		if ok {
			m.left--
			r.CtxID = uint16(m.cur)
			return r, true
		}
		m.left = 0
	}
	return trace.Rec{}, false
}
