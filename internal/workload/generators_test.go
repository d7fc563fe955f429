package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zbp/internal/trace"
	"zbp/internal/zarch"
)

func TestRegistryAllRunnable(t *testing.T) {
	for name, mk := range Registry() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			src := mk(42)
			recs := trace.Take(src, 20000)
			if len(recs) != 20000 {
				t.Fatalf("%s: produced only %d records", name, len(recs))
			}
			for i, r := range recs {
				if err := r.Validate(); err != nil {
					t.Fatalf("%s: record %d invalid: %v", name, i, err)
				}
			}
			checkProgramOrder(t, recs)
		})
	}
}

func TestRegistryDeterministic(t *testing.T) {
	for name, mk := range Registry() {
		a := trace.Take(mk(7), 5000)
		b := trace.Take(mk(7), 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs between same-seed runs", name, i)
			}
		}
	}
}

func TestRegistrySeedSensitivity(t *testing.T) {
	// Different seeds must not produce identical branch outcome streams
	// for workloads with random behaviour.
	for _, name := range []string{"lspr-small", "micro"} {
		mk := Registry()[name]
		a := trace.Take(mk(1), 20000)
		b := trace.Take(mk(2), 20000)
		diff := false
		for i := range a {
			if a[i] != b[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Errorf("%s: seeds 1 and 2 produced identical traces", name)
		}
	}
}

func TestMakeUnknown(t *testing.T) {
	if _, err := Make("no-such-workload", 1); err == nil {
		t.Fatal("Make accepted unknown name")
	}
	if src, err := Make("loops", 1); err != nil || src == nil {
		t.Fatalf("Make(loops) = %v, %v", src, err)
	}
}

func TestNamesSortedComplete(t *testing.T) {
	names := Names()
	if len(names) != len(Registry()) {
		t.Fatalf("Names() has %d entries, registry %d", len(names), len(Registry()))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

// statsFor computes trace stats over n records of a fresh workload.
func statsFor(name string, n int) trace.Stats {
	src, err := Make(name, 99)
	if err != nil {
		panic(err)
	}
	return trace.Collect(src, n)
}

func TestLSPRShape(t *testing.T) {
	st := statsFor("lspr", 300000)
	// Paper rules of thumb (§II.A): a branch roughly every 4-6
	// instructions, average instruction length near 5 bytes, and a large
	// code footprint.
	if d := st.BranchDensity(); d < 2.5 || d > 9 {
		t.Errorf("branch density = %.2f instr/branch, want ~4-6", d)
	}
	if l := st.AvgInstrLen(); l < 3.4 || l > 5.6 {
		t.Errorf("avg instr len = %.2f, want ~4-5", l)
	}
	if st.Footprint < 2000 {
		t.Errorf("footprint = %d 64B lines, want large", st.Footprint)
	}
	if st.DistinctBr < 2000 {
		t.Errorf("distinct branches = %d, want thousands", st.DistinctBr)
	}
	if r := st.TakenRatio(); r < 0.35 || r > 0.95 {
		t.Errorf("taken ratio = %.2f", r)
	}
	if st.Indirect == 0 {
		t.Error("no indirect branches in LSPR")
	}
}

func TestLoopsShape(t *testing.T) {
	st := statsFor("loops", 100000)
	if st.Footprint > 10 {
		t.Errorf("loops footprint = %d lines, want tiny", st.Footprint)
	}
	if st.DistinctBr > 16 {
		t.Errorf("loops distinct branches = %d", st.DistinctBr)
	}
}

func TestLSPRFootprintScales(t *testing.T) {
	small := trace.Collect(LSPR(5, 64, 1.0), 200000)
	large := trace.Collect(LSPR(5, 1024, 1.0), 200000)
	if large.DistinctBr <= small.DistinctBr {
		t.Errorf("footprint did not scale: small=%d large=%d",
			small.DistinctBr, large.DistinctBr)
	}
}

func TestCallReturnHasFarCalls(t *testing.T) {
	src, _ := Make("callret", 3)
	recs := trace.Take(src, 50000)
	farCalls, rets := 0, 0
	for _, r := range recs {
		if !r.IsBranch() || !r.Taken() {
			continue
		}
		d := int64(r.Target) - int64(r.Addr)
		if d < 0 {
			d = -d
		}
		if r.Kind() == zarch.KindUncondRel && d > 64*1024 {
			farCalls++
		}
		if r.Kind() == zarch.KindUncondInd {
			rets++
		}
	}
	if farCalls < 100 {
		t.Errorf("far calls = %d, want many", farCalls)
	}
	if rets < 100 {
		t.Errorf("returns = %d, want many", rets)
	}
}

func TestMixedSwitchesContexts(t *testing.T) {
	src, _ := Make("mixed", 3)
	recs := trace.Take(src, 200000)
	seen := map[uint16]bool{}
	switches := 0
	for i, r := range recs {
		seen[r.CtxID] = true
		if i > 0 && r.CtxID != recs[i-1].CtxID {
			switches++
		}
	}
	if len(seen) != 3 {
		t.Errorf("contexts seen = %d, want 3", len(seen))
	}
	if switches < 5 {
		t.Errorf("context switches = %d", switches)
	}
}

func TestIndirectTargetsVary(t *testing.T) {
	src, _ := Make("indirect", 3)
	recs := trace.Take(src, 50000)
	targets := map[zarch.Addr]map[zarch.Addr]bool{}
	for _, r := range recs {
		if r.Kind() == zarch.KindUncondInd && r.Taken() {
			if targets[r.Addr] == nil {
				targets[r.Addr] = map[zarch.Addr]bool{}
			}
			targets[r.Addr][r.Target] = true
		}
	}
	multi := 0
	for _, m := range targets {
		if len(m) > 1 {
			multi++
		}
	}
	if multi < 3 {
		t.Errorf("multi-target indirect branches = %d, want >= 3", multi)
	}
}

// TestRegistryTraceDigests pins the exact bytes every registered
// generator emits: the SHA-256 of the encoded packed trace at two
// (seed, budget) points. A change to the program IR or the interpreter
// that alters any record of any generator fails here, even where the
// summary statistics and the simulator goldens would not move.
func TestRegistryTraceDigests(t *testing.T) {
	cases := []struct {
		name   string
		seed   uint64
		n      int
		digest string
	}{
		{"btree", 1, 3000, "40d637108e6f5a992b8d5451f24dcc1c027a09020855f6358b1d002fd486609b"},
		{"callret", 1, 3000, "b39b8943f61a2b42e41de2d5e0f79b0aed850fbbc481ec964c3161d6d406543e"},
		{"indirect", 1, 3000, "6b4ae83fad4a516bc43f6941741a77a52a6cffe5347b5ccbe4d909dd7991688c"},
		{"interp", 1, 3000, "291d81dd03a0f2e9eeb0571564bb6d028fcac03144a1d8c8804bb9a9af563aa1"},
		{"loops", 1, 3000, "c74c14f1c4ef8c27ad83dea83aa4b25020420de465f7385dcb9b8e8a06d4a4a0"},
		{"lspr", 1, 3000, "d0285e7d19f31ed95aa959cd84d40dd912cfee4ee8e7e1d512caa09ba104453f"},
		{"lspr-large", 1, 3000, "38c75418027eabad196e696228a949a58a085b5a800e65e13abbbaafcbed9b6f"},
		{"lspr-small", 1, 3000, "e43b4653c8345a0a09c107d96ffe7023f6db3265cbb9a6ef1a1468ea47f5810b"},
		{"micro", 1, 3000, "03e45526e73b2a62e3d55eed129fb0daa3d8d9b1d7bc4b503c7120a468cdd18b"},
		{"mixed", 1, 3000, "97f9c92aea9c7d9203c404d7c0f2782173c43a25b5a8e8a00969eadb0f8784d3"},
		{"patterned", 1, 3000, "8461c75d41cad5e45939e6465f0466961e01d24d128a1de8b40e28419cd58f72"},
		{"btree", 42, 100000, "b2ee3936fe8898274238ea06cebef6eed496d174ab4016821ded4f72dff5df39"},
		{"callret", 42, 100000, "6690e4f553ad7d8aae7d477d27390aa5514d7de88c69f4950b02af8242a59e25"},
		{"indirect", 42, 100000, "4eb1938f4335f364cf17e87c33007603852cfef71ad30a1c7b66b8fa1655fefa"},
		{"interp", 42, 100000, "26e1c38d06a0d73961330276fdcdd8b8437c3ddb60166f77d01da6b562e79bbb"},
		{"loops", 42, 100000, "55afafcc638737c82179c46225175ce43ffa866afeaba17eca8dd8091ce045a9"},
		{"lspr", 42, 100000, "11d01c9b1883d30730a5f24f1f2880c951f34efe13f0137e833b94e96b75bde1"},
		{"lspr-large", 42, 100000, "49f4464f322c10d25bc75ca5b013fe61881ffe0c149540ae9a73e06c665bd01d"},
		{"lspr-small", 42, 100000, "20cb05527043418eed48757b51df0ab9177db13b24a0e24c2d0edf765d2bdc15"},
		{"micro", 42, 100000, "7272aefd7e8f747a71ee74b6ae249efc7a92a93cb730ae5678da7f9123313668"},
		{"mixed", 42, 100000, "4ec6fbe2c8e7f66e43c97296364842d61c4af2be315292d2da34087bf4369c26"},
		{"patterned", 42, 100000, "53327d10c4b9d3f58f99bc5bda3fd119ffcf2374ac70c5ea5ad30fcc7adb3681"},
	}
	pinned := map[string]int{}
	for _, c := range cases {
		pinned[c.name]++
		p, err := MakePacked(c.name, c.seed, c.n)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := p.Encode(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s seed %d n %d: trace digest %s, want %s", c.name, c.seed, c.n, got, c.digest)
		}
	}
	for _, name := range Names() {
		if pinned[name] != 2 {
			t.Errorf("%s: %d pinned digests, want 2", name, pinned[name])
		}
	}
}
