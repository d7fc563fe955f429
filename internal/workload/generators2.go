package workload

import (
	"zbp/internal/hashx"
	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// Interpreter models a bytecode-interpreter main loop, the classic
// changing-target workload (§VI cites Chang/Hao/Patt's indirect-jump
// work): one hot indirect dispatch branch whose target is the next
// opcode's handler. Opcodes are drawn from a set of synthetic
// "programs" (opcode sequences), so the dispatch target correlates
// with the recent handler path -- partially learnable by a GPV-indexed
// CTB -- while handler-internal branches are highly predictable.
func Interpreter(seed uint64) trace.Source {
	b := NewBuilder(0x60000, seed)
	rng := hashx.New(seed ^ 0x1e7e)

	const nOps = 24

	handlers := make([]*Label, nOps)
	for i := range handlers {
		handlers[i] = b.NewLabel()
	}

	// Dispatch: fetch-decode pad, then the indirect jump to the next
	// handler. The "bytecode" is a fixed synthetic program of a few
	// hundred ops, looped; the opcode sequence is therefore periodic
	// and the dispatch target path-predictable.
	prog := make([]int, 300)
	for i := range prog {
		// Skewed opcode mix: a few hot opcodes, many cold ones.
		if rng.Bool(0.7) {
			prog[i] = rng.Intn(6)
		} else {
			prog[i] = rng.Intn(nOps)
		}
	}
	dispL := b.NewLabel()
	disp := b.Block(10)
	b.Bind(dispL, disp)
	targets := make([]Target, nOps)
	for i := range targets {
		targets[i] = handlers[i]
	}
	sw := b.Block(4)
	pcSlot := b.newSlot()
	sw.setBranch(zarch.KindUncondInd, 2,
		func(*Exec) bool { return true },
		func(e *Exec, _ int) int {
			pc := &e.slot[pcSlot]
			op := prog[*pc]
			*pc = (*pc + 1) % int64(len(prog))
			return op
		}, targets...)

	// Handlers: short bodies with one or two predictable branches, then
	// jump back to dispatch.
	for i := 0; i < nOps; i++ {
		h := b.Block(8 + rng.Intn(10)*2)
		b.Bind(handlers[i], h)
		if rng.Bool(0.5) {
			afterL := b.NewLabel()
			blk := b.Block(6)
			blk.CondBias([]float64{0.95, 0.05, 0.9}[rng.Intn(3)], afterL)
			b.Block(4) // island
			after := b.Block(2)
			b.Bind(afterL, after)
		}
		if rng.Bool(0.3) {
			bodyL := b.NewLabel()
			body := b.Block(6)
			b.Bind(bodyL, body)
			latch := b.Block(4)
			latch.Loop(2+rng.Intn(3), bodyL)
		}
		tail := b.Block(2)
		tail.Jump(dispL)
	}

	return NewExec(b.MustBuild(disp), seed+1)
}

// BTree models database index descent (the paper's §I motivation:
// "high throughput transactions, typically to a vast database"): each
// lookup walks a fixed-depth tree where every level compares and
// branches left/right on the (data-dependent) key, then touches a
// leaf-processing routine. The level-compare branches are taken ~50%
// -- genuinely hard -- while the walk structure itself (loop, calls) is
// perfectly predictable, reproducing the bimodal branch population of
// OLTP code.
func BTree(seed uint64) trace.Source {
	b := NewBuilder(0x70000, seed)
	rng := hashx.New(seed ^ 0xb7ee)

	const depth = 6

	headL := b.NewLabel()
	leafL := b.NewLabel()

	head := b.Block(16)
	b.Bind(headL, head)

	// Descent: one compare-and-branch per level. Taken -> right subtree
	// island, fall -> left; both rejoin for the next level.
	for lvl := 0; lvl < depth; lvl++ {
		afterL := b.NewLabel()
		cmp := b.Block(10)
		cmp.CondBias(0.5, afterL) // key comparison: data-dependent
		b.Block(8)                // left-path work, falls into after
		after := b.Block(6)
		b.Bind(afterL, after)
	}

	// Leaf processing: a far call (record copy routine), like the
	// shared utilities of real transaction code.
	call := b.Block(6)
	call.Call(leafL)
	cont := b.Block(4)
	_ = cont
	latch := b.Block(4)
	latch.Loop(1<<30, headL)
	fin := b.Block(2)
	fin.Jump(headL)

	b.Gap(256 * 1024)
	leaf := b.Block(20)
	b.Bind(leafL, leaf)
	bodyL := b.NewLabel()
	body := b.Block(10)
	b.Bind(bodyL, body)
	copyLatch := b.Block(4)
	copyLatch.Loop(4+rng.Intn(4), bodyL)
	ret := b.Block(2)
	ret.Return()

	return NewExec(b.MustBuild(head), seed+1)
}
