package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"clustersim/internal/critpath"
	"clustersim/internal/perf"
	"clustersim/internal/profile"
	"clustersim/internal/telemetry"
)

// TestHashExclusionContract is the runtime twin of simlint's
// hashexclude rule: HashExcludedFields and the json:"-" struct tags on
// Config must describe exactly the same set of fields, so the config
// hash's input is a single auditable list.
func TestHashExclusionContract(t *testing.T) {
	tagged := make(map[string]bool)
	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag := f.Tag.Get("json")
		if tag == "-" {
			tagged[f.Name] = true
			continue
		}
		// Attachment-shaped fields (pointers, interfaces, funcs) must be
		// either hash-excluded or an explicit omitempty opt-in like
		// Faults — never silently part of the hash.
		switch f.Type.Kind() {
		case reflect.Ptr, reflect.Interface, reflect.Func:
			if !strings.Contains(tag, "omitempty") {
				t.Errorf("attachment field Config.%s is neither json:\"-\" nor json:\",omitempty\"", f.Name)
			}
		}
	}

	declared := make(map[string]bool, len(HashExcludedFields))
	for _, name := range HashExcludedFields {
		if declared[name] {
			t.Errorf("HashExcludedFields lists %q twice", name)
		}
		declared[name] = true
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("HashExcludedFields lists %q but Config has no such field", name)
		}
		if !tagged[name] {
			t.Errorf("HashExcludedFields lists %q but Config.%s does not carry json:\"-\"", name, name)
		}
	}
	for name := range tagged {
		if !declared[name] {
			t.Errorf("Config.%s carries json:\"-\" but is missing from HashExcludedFields", name)
		}
	}

	want := append([]string(nil), HashExcludedFields...)
	sort.Strings(want)
	got := make([]string, 0, len(tagged))
	for name := range tagged {
		got = append(got, name) //simlint:allow maprange — fully sorted below
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("exclusion set size mismatch: tags %v vs declared %v", got, want)
	}
}

// TestResultHoldsNoInstrument: a run with every instrument attached
// returns a Result whose config holds none of them, so a kept Result
// keeps no collector alive. Every pointer- or interface-typed
// hash-excluded field is nil, the config still validates, and its hash
// is the attached config's.
func TestResultHoldsNoInstrument(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Procs, cfg.ClusterSize, cfg.CacheKBPerProc = 4, 2, 4
	cfg.Tracer = &hashingObserver{}
	cfg.Telemetry, cfg.SampleEvery = telemetry.New(), 100
	cfg.Profile = profile.New()
	cfg.Perf = perf.New()
	cfg.Critpath = critpath.New()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Alloc(4096, "data")
	bar := m.NewBarrier()
	res, err := m.Run(func(p *Proc) {
		p.Read(data + uint64(p.ID())*64)
		p.Write(data)
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}

	attached, kept := reflect.ValueOf(cfg), reflect.ValueOf(res.Config)
	for _, name := range HashExcludedFields {
		switch f := kept.FieldByName(name); f.Kind() {
		case reflect.Ptr, reflect.Interface:
			if attached.FieldByName(name).IsNil() {
				t.Errorf("the test attaches no Config.%s", name)
			}
			if !f.IsNil() {
				t.Errorf("Result.Config.%s still holds the run's instrument", name)
			}
		}
	}
	if err := res.Config.Validate(); err != nil {
		t.Errorf("Result.Config no longer validates: %v", err)
	}
	want, err := telemetry.HashConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := telemetry.HashConfig(res.Config); err != nil || got != want {
		t.Errorf("Result.Config hash = %s (%v), want the attached config's %s", got, err, want)
	}
}
