package zbp

import (
	"context"
	"errors"
	"testing"
)

// The facade tests exercise the public API exactly as README documents
// it.

func TestFacadeQuickstart(t *testing.T) {
	src, err := NewWorkload("loops", 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Z15(), src, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions() != 50_000 {
		t.Fatalf("retired %d", res.Instructions())
	}
	if res.MPKI() < 0 || res.IPC() <= 0 || res.Accuracy() <= 0 {
		t.Fatalf("bad metrics: %+v", res)
	}
}

func TestFacadeRunContextCancel(t *testing.T) {
	src, err := NewWorkload("lspr", 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, Z15(), src, 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Truncated {
		t.Error("canceled run not marked Truncated")
	}
}

func TestFacadeGenerations(t *testing.T) {
	gens := Generations()
	if len(gens) != 4 || gens[0].Name != "zEC12" || gens[3].Name != "z15" {
		t.Fatalf("generations: %v", gens)
	}
	for _, mk := range []func() Config{Z15, Z14, Z13, ZEC12} {
		cfg := mk()
		if err := cfg.Core.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadeWorkloadsListed(t *testing.T) {
	names := Workloads()
	if len(names) < 10 {
		t.Fatalf("only %d workloads", len(names))
	}
	for _, name := range names {
		if _, err := NewWorkload(name, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := NewWorkload("no-such", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFacadeSMT2(t *testing.T) {
	a, _ := NewWorkload("loops", 1)
	b, _ := NewWorkload("micro", 2)
	s := NewSim(Z15(), []Source{Limit(a, 20_000), Limit(b, 20_000)})
	res, err := s.RunCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("threads = %d", len(res.Threads))
	}
	for i, th := range res.Threads {
		if th.Instructions < 19_000 {
			t.Errorf("thread %d retired %d", i, th.Instructions)
		}
	}
}
