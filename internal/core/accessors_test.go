package core

import (
	"testing"

	"zbp/internal/btb"
	"zbp/internal/sat"
	"zbp/internal/zarch"
)

func TestConfigValidationErrors(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.BTB1.Ways = 0 },
		func(c *Config) { c.BTB2.RowBits = 0 },
		func(c *Config) { c.GPVDepth = 0 },
		func(c *Config) { c.GPVDepth = 99 },
		func(c *Config) { c.PipeStages = 1 },
		func(c *Config) { c.CPredReindexStage = 9 },
		func(c *Config) { c.PredQueueCap = 0 },
		func(c *Config) { c.WriteQueueCap = 0 },
		func(c *Config) { c.StageCap = 0 },
		func(c *Config) { c.SearchesPerCycleST = 0 },
	}
	for i, mod := range bad {
		cfg := Z15()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// A disabled BTB2 need not be valid geometry.
	cfg := Z15()
	cfg.BTB2Enabled = false
	cfg.BTB2 = btb.Geometry{}
	if err := cfg.Validate(); err != nil {
		t.Errorf("disabled BTB2 geometry validated: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	cfg := Z15()
	cfg.GPVDepth = 0
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(cfg)
}

func TestStatsAccessors(t *testing.T) {
	c := New(Z15())
	c.Preload(1, btb.Info{Addr: 0x10008, Len: 4, Kind: zarch.KindUncondRel,
		Target: 0x20000, BHT: sat.StrongT, Skoot: btb.SkootUnknown})
	c.Restart(0, 0x10000, 0)
	for i := 0; i < 30; i++ {
		c.Cycle()
	}
	if c.Config().Name != "z15" {
		t.Error("Config accessor wrong")
	}
	if c.BTB1Stats().Searches == 0 {
		t.Error("BTB1Stats empty")
	}
	if c.BTB2Stats().Installs < 0 {
		t.Error("BTB2/stage accessors broken")
	}
	_ = c.DirStats()
	_ = c.TgtStats()
	if c.CPredStats().Lookups == 0 {
		t.Error("CPredStats empty")
	}
	// Disabled-BTB2 accessors return zero values.
	cfg := Z15()
	cfg.BTB2Enabled = false
	c2 := New(cfg)
	if c2.BTB2Stats() != (btb.Stats{}) || c2.BTB2Occupancy() != 0 {
		t.Error("disabled BTB2 stats not zero")
	}
	if _, ok := c2.BTB2Lookup(0x1000); ok {
		t.Error("disabled BTB2 lookup hit")
	}
	c2.ObserveBTB2(func(btb.Event) {}) // must not panic
}

func TestSurpriseInfoShape(t *testing.T) {
	taken := SurpriseInfo(0x1000, 4, zarch.KindCondRel, 0x2000, true)
	if taken.Target != 0x2000 || !taken.BHT.Taken() || taken.Skoot != btb.SkootUnknown {
		t.Errorf("taken SurpriseInfo = %+v", taken)
	}
	nt := SurpriseInfo(0x1000, 4, zarch.KindLoop, 0x2000, false)
	if nt.Target != 0x1004 || nt.BHT.Taken() {
		t.Errorf("not-taken SurpriseInfo = %+v", nt)
	}
}

func TestOutcomeMispredicted(t *testing.T) {
	p := Prediction{Taken: true, Target: 0x2000}
	if !(Outcome{Pred: p, Taken: false}).Mispredicted() {
		t.Error("wrong direction not mispredicted")
	}
	if !(Outcome{Pred: p, Taken: true, Target: 0x3000}).Mispredicted() {
		t.Error("wrong target not mispredicted")
	}
	if (Outcome{Pred: p, Taken: true, Target: 0x2000}).Mispredicted() {
		t.Error("correct prediction mispredicted")
	}
}

func TestWriteQueueDropsCounted(t *testing.T) {
	cfg := Z15()
	cfg.WriteQueueCap = 1
	c := New(cfg)
	c.Restart(0, 0x10000, 0)
	// Two surprise installs in the same cycle: one queues, one drops.
	for i := 0; i < 4; i++ {
		c.CompleteSurprise(Surprise{Thread: 0, Addr: zarch.Addr(0x11000 + i*0x80),
			Len: 4, Kind: zarch.KindCondRel, Taken: true, Target: 0x12000})
	}
	if c.Stats().WriteQueueDrops == 0 {
		t.Error("write-queue overflow not counted")
	}
}

func TestCoveredStaleEpoch(t *testing.T) {
	c := New(Z15())
	c.Restart(0, 0x10000, 0)
	// A query with a stale epoch reports covered (caller resyncs).
	if !c.Covered(0, 0, 0, 0x10000) {
		t.Error("stale-epoch query not treated as covered")
	}
	// Future stream is not covered.
	if c.Covered(0, 1, 5, 0x10000) {
		t.Error("future stream reported covered")
	}
}
