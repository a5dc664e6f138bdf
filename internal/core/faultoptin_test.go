package core

import (
	"encoding/json"
	"strings"
	"testing"

	"clustersim/internal/fault"
	"clustersim/internal/telemetry"
)

// baselineDefaultHash is the config hash of DefaultConfig(). Pinning it
// proves the acceptance criterion that fault injection is strictly
// opt-in: a nil Faults plan (and any Label) must leave config hashes —
// and therefore every journal key and manifest — byte-identical to
// builds without the fault layer. It changed once on purpose, when the
// ProfileRegions field left Config.
const baselineDefaultHash = "sha256:cba249fd376ac0feea918ef4ba9471acb603ec7ffe1d4606e7a37d69b5e7ace3"

func TestConfigHashUnchangedWithoutFaults(t *testing.T) {
	cfg := DefaultConfig()
	h, err := telemetry.HashConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h != baselineDefaultHash {
		t.Fatalf("DefaultConfig hash drifted:\n got  %s\n want %s\n"+
			"(a nil fault plan must marshal identically to pre-fault builds)", h, baselineDefaultHash)
	}
	cfg.Label = "ocean" // excluded from the hash
	if h2, _ := telemetry.HashConfig(cfg); h2 != h {
		t.Errorf("Label changed the config hash: %s vs %s", h2, h)
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"Faults", "Label"} {
		if strings.Contains(string(b), forbidden) {
			t.Errorf("zero-value config JSON leaks %q: %s", forbidden, b)
		}
	}
}

func TestFaultPlanChangesHash(t *testing.T) {
	cfg := DefaultConfig()
	base, _ := telemetry.HashConfig(cfg)
	cfg.Faults = &fault.Config{Seed: 1, NackPerMille: 10}
	h, err := telemetry.HashConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h == base {
		t.Error("an attached fault plan must change the config hash (journal keys would collide)")
	}
	cfg.Faults = &fault.Config{Seed: 2, NackPerMille: 10}
	if h2, _ := telemetry.HashConfig(cfg); h2 == h {
		t.Error("fault seed must be part of the config hash")
	}
}

func TestValidateRejectsBadFaultPlan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &fault.Config{NackPerMille: 5000}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted an out-of-range fault plan")
	}
	if _, err := NewMachine(cfg); err == nil {
		t.Error("NewMachine accepted an out-of-range fault plan")
	}
}

// TestInactivePlanAttachesNoInjector: a non-nil plan whose
// probabilities are all zero behaves exactly like no plan — same
// result, only the hash differs (the plan is serialised).
func TestInactivePlanAttachesNoInjector(t *testing.T) {
	run := func(f *fault.Config) Clock {
		cfg := DefaultConfig()
		cfg.Procs = 4
		cfg.ClusterSize = 2
		cfg.Faults = f
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data := m.Alloc(4096, "data")
		res, err := m.Run(func(p *Proc) {
			for i := 0; i < 64; i++ {
				p.Read(data + uint64(i)*64)
				p.Write(data + uint64(i)*64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	plain := run(nil)
	inactive := run(&fault.Config{Seed: 123}) // all probabilities zero
	if plain != inactive {
		t.Errorf("inactive plan perturbed the run: %d vs %d cycles", inactive, plain)
	}
}
