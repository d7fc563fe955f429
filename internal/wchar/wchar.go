// Package wchar characterizes workload branch predictability: the
// metrics "Workload Characterization for Branch Predictability"
// (Vikas, Gratz & Jiménez) and "Branch Prediction Is Not a Solved
// Problem" (Lin & Tarsa) use to explain *why* a predictor scores what
// it scores on a trace — taken rate, transition rate, local-history
// conditional entropy, and the hard-to-predict (H2P) branch
// population: the handful of static branches contributing most of the
// mispredicts under a cheap reference predictor.
//
// Characterization is a sidecar, not part of the simulator's stats
// schema: reports carry their own schema version and serialize
// deterministically, so golden sidecars can be diffed in CI without
// ever perturbing the golden stats JSON.
package wchar

import (
	"encoding/json"
	"io"
	"math"
	"sort"

	"zbp/internal/trace"
	"zbp/internal/zarch"
)

// SchemaVersion identifies the report layout. Bump on any field
// change, exactly like metrics.SchemaVersion.
const SchemaVersion = 1

// The yardsticks every report is measured with.
const (
	// localHistBits is the per-branch local-history depth conditioning
	// the entropy estimate.
	localHistBits = 8
	// refTableBits sizes the reference gshare predictor's counter table
	// (16K two-bit counters); refPredictor names that predictor.
	refTableBits = 14
	refPredictor = "gshare-14+last-target"
)

// Config sizes the characterization pass. The zero value gets
// production-lean defaults.
type Config struct {
	// TopN bounds the H2P list. Default: 20.
	TopN int
}

func (c Config) withDefaults() Config {
	if c.TopN <= 0 {
		c.TopN = 20
	}
	return c
}

// Report is the schema-versioned characterization sidecar.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Workload      string `json:"workload"`
	Seed          uint64 `json:"seed"`

	Instructions   int `json:"instructions"`
	Branches       int `json:"branches"`
	Conditional    int `json:"conditional"`
	Indirect       int `json:"indirect"`
	StaticBranches int `json:"static_branches"`
	FootprintLines int `json:"footprint_lines"`
	CtxSwitches    int `json:"ctx_switches"`

	// TakenRate is the fraction of branch executions resolved taken.
	TakenRate float64 `json:"taken_rate"`
	// TransitionRate is the fraction of conditional branch executions
	// whose outcome differs from the same static branch's previous
	// outcome — the bias-independent "how twitchy" measure.
	TransitionRate float64 `json:"transition_rate"`
	// HistoryEntropy is the exec-weighted mean, over static conditional
	// branches, of the branch's outcome entropy conditioned on its own
	// recent local history (bits of irreducible-looking randomness per
	// outcome; 0 = fully determined by local history).
	HistoryEntropy float64 `json:"history_entropy"`

	// RefPredictor names the cheap reference predictor the mispredict
	// attribution below uses.
	RefPredictor   string  `json:"ref_predictor"`
	RefMispredicts int     `json:"ref_mispredicts"`
	RefAccuracy    float64 `json:"ref_accuracy"`
	RefMPKI        float64 `json:"ref_mpki"`

	// H2P lists the top static branches by reference-predictor
	// mispredicts, most-damaging first.
	H2P []H2PEntry `json:"h2p"`
}

// H2PEntry is one hard-to-predict static branch.
type H2PEntry struct {
	Addr            string  `json:"addr"`
	Kind            string  `json:"kind"`
	Execs           int     `json:"execs"`
	TakenRate       float64 `json:"taken_rate"`
	Transitions     int     `json:"transitions"`
	Mispredicts     int     `json:"mispredicts"`
	Accuracy        float64 `json:"accuracy"`
	Entropy         float64 `json:"entropy"`
	MispredictShare float64 `json:"mispredict_share"`
}

// WriteJSON writes the report's canonical serialization (two-space
// indent, fixed field order, trailing newline) to w.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// bstate accumulates one static branch.
type bstate struct {
	kind    zarch.BranchKind
	execs   int
	taken   int
	trans   int
	misp    int
	predAt  int // predicted executions (conditional dir + indirect target)
	seen    bool
	lastOut bool
	lastTgt zarch.Addr
	hist    uint32
	buckets map[uint32]*[2]uint32
}

// Characterize consumes up to max records from src (max <= 0 means
// until exhaustion) and computes the characterization report. The
// caller stamps Workload/Seed before serializing.
//
// The reference predictor is deliberately cheap and fixed: a gshare
// direction predictor (2^refTableBits two-bit counters indexed by
// PC xor global history) plus a per-branch last-target predictor for
// indirect targets. H2P identification needs a stable, simple
// yardstick — the z15 model itself is the thing whose accuracy the
// characterization explains, so it cannot also be the ruler.
func Characterize(src trace.Source, max int, cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{SchemaVersion: SchemaVersion}

	table := make([]uint8, 1<<refTableBits)
	for i := range table {
		table[i] = 2 // weakly taken
	}
	mask := uint64(len(table) - 1)
	histMask := uint32(1)<<localHistBits - 1
	var ghist uint64

	branches := make(map[zarch.Addr]*bstate)
	lines := make(map[zarch.Addr]struct{})
	var lastCtx uint16
	first := true
	takenCount := 0

	for max <= 0 || rep.Instructions < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		rep.Instructions++
		lines[r.Addr.Line64()] = struct{}{}
		if !first && r.CtxID != lastCtx {
			rep.CtxSwitches++
		}
		first, lastCtx = false, r.CtxID
		if !r.IsBranch() {
			continue
		}
		rep.Branches++
		out := r.Taken()
		if out {
			takenCount++
		}
		kind := r.Kind()
		b := branches[r.Addr]
		if b == nil {
			b = &bstate{kind: kind}
			branches[r.Addr] = b
		}
		b.execs++
		if out {
			b.taken++
		}
		if kind.Conditional() {
			rep.Conditional++
			// Local-history-conditioned outcome distribution.
			if b.buckets == nil {
				b.buckets = make(map[uint32]*[2]uint32)
			}
			bucket := b.buckets[b.hist]
			if bucket == nil {
				bucket = new([2]uint32)
				b.buckets[b.hist] = bucket
			}
			if out {
				bucket[1]++
			} else {
				bucket[0]++
			}
			if b.seen && out != b.lastOut {
				b.trans++
			}
			// Reference gshare direction prediction.
			idx := (uint64(r.Addr)>>1 ^ ghist) & mask
			pred := table[idx] >= 2
			b.predAt++
			if pred != out {
				b.misp++
			}
			if out && table[idx] < 3 {
				table[idx]++
			} else if !out && table[idx] > 0 {
				table[idx]--
			}
			ghist = ghist<<1 | btou(out)
			b.hist = (b.hist<<1 | uint32(btou(out))) & histMask
		}
		if kind.Indirect() {
			rep.Indirect++
			// Last-target reference prediction for taken indirects.
			if out {
				b.predAt++
				if b.seen && b.lastTgt != r.Target {
					b.misp++
				} else if !b.seen {
					b.misp++ // first sight is compulsory
				}
				b.lastTgt = r.Target
			}
		}
		b.seen, b.lastOut = true, out
	}

	rep.StaticBranches = len(branches)
	rep.FootprintLines = len(lines)
	rep.TakenRate = round6(ratio(takenCount, rep.Branches))

	// Fold per-branch accumulators into the aggregate rates and the
	// H2P ranking.
	totalTrans, totalMisp, totalPred := 0, 0, 0
	entropyWeighted, entropyWeight := 0.0, 0.0
	type ranked struct {
		addr zarch.Addr
		b    *bstate
		ent  float64
	}
	var rank []ranked
	for addr, b := range branches {
		totalTrans += b.trans
		totalMisp += b.misp
		totalPred += b.predAt
		ent := localEntropy(b.buckets)
		if b.buckets != nil {
			condExecs := 0
			for _, bucket := range b.buckets {
				condExecs += int(bucket[0] + bucket[1])
			}
			entropyWeighted += ent * float64(condExecs)
			entropyWeight += float64(condExecs)
		}
		if b.misp > 0 {
			rank = append(rank, ranked{addr, b, ent})
		}
	}
	rep.TransitionRate = round6(ratio(totalTrans, rep.Conditional))
	if entropyWeight > 0 {
		rep.HistoryEntropy = round6(entropyWeighted / entropyWeight)
	}
	rep.RefPredictor = refPredictor
	rep.RefMispredicts = totalMisp
	rep.RefAccuracy = round6(ratio(totalPred-totalMisp, totalPred))
	if rep.Instructions > 0 {
		rep.RefMPKI = round6(1000 * float64(totalMisp) / float64(rep.Instructions))
	}

	sort.Slice(rank, func(i, j int) bool {
		if rank[i].b.misp != rank[j].b.misp {
			return rank[i].b.misp > rank[j].b.misp
		}
		return rank[i].addr < rank[j].addr
	})
	if len(rank) > cfg.TopN {
		rank = rank[:cfg.TopN]
	}
	rep.H2P = make([]H2PEntry, len(rank))
	for i, rk := range rank {
		rep.H2P[i] = H2PEntry{
			Addr:            rk.addr.String(),
			Kind:            rk.b.kind.String(),
			Execs:           rk.b.execs,
			TakenRate:       round6(ratio(rk.b.taken, rk.b.execs)),
			Transitions:     rk.b.trans,
			Mispredicts:     rk.b.misp,
			Accuracy:        round6(ratio(rk.b.predAt-rk.b.misp, rk.b.predAt)),
			Entropy:         round6(rk.ent),
			MispredictShare: round6(ratio(rk.b.misp, totalMisp)),
		}
	}
	return rep
}

// localEntropy is the branch's outcome entropy conditioned on its own
// local history: the bucket-weighted mean of the per-history Bernoulli
// entropy, in bits per outcome.
func localEntropy(buckets map[uint32]*[2]uint32) float64 {
	if len(buckets) == 0 {
		return 0
	}
	total := 0.0
	acc := 0.0
	for _, b := range buckets {
		n := float64(b[0] + b[1])
		total += n
		acc += n * bernoulliEntropy(float64(b[1])/n)
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// bernoulliEntropy returns H(p) in bits, with H(0)=H(1)=0.
func bernoulliEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// ratio is the zero-guarded division every rate in the report goes
// through: branch-free and empty traces must serialize finite numbers.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// round6 rounds to 6 decimals so the serialized floats are stable
// across platforms' math-library ULP differences.
func round6(x float64) float64 {
	return math.Round(x*1e6) / 1e6
}

func btou(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
