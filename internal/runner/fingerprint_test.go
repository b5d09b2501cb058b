package runner

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestFingerprintGolden pins Job.Fingerprint values. Fingerprints key
// checkpoint journals, the serving layer's memory and disk caches and
// peer cache fills, so a change that moves them silently invalidates
// every stored result. TestFingerprint checks only which jobs agree;
// this test notices when every value moves at once, for example when a
// sim.Config field is added or removed.
func TestFingerprintGolden(t *testing.T) {
	bench := func(name string) workload.Workload {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// The clock is pinned, so PSB_CYCLE_MODE=accurate leaves every row
	// but "accurate" where it is.
	def := sim.Default()
	def.CPU.CycleMode = cpu.CycleModeEvent

	excluded := def
	excluded.Workers = 8
	excluded.TraceMode = sim.TraceMemory
	excluded.TraceDir = "traces"

	accurate := def
	accurate.CPU.CycleMode = cpu.CycleModeAccurate

	sampled := def
	sampled.MaxInsts = 2_000_000
	sampled.TraceMode = sim.TraceMemory
	sampled.SampleMode = sim.SampleOn

	fig4 := def
	fig4.CollectFig4 = true

	l1 := def
	l1.Mem.L1D.SizeBytes = 16 << 10
	l1.Mem.L1D.Ways = 4

	noDis := def
	noDis.CPU.Disambiguation = cpu.DisNone

	other := def
	other.Seed = 7
	other.MaxInsts = 20_000

	for _, tc := range []struct {
		name string
		job  Job
		want string
	}{
		{"default", Job{bench("health"), core.PSBConfPriority, def}, "a6ab94be30fee338"},
		{"excluded fields", Job{bench("health"), core.PSBConfPriority, excluded}, "a6ab94be30fee338"},
		{"accurate", Job{bench("health"), core.PSBConfPriority, accurate}, "93e4cd977d1ac3be"},
		{"sampled", Job{bench("deltablue"), core.PSBConfRR, sampled}, "ba7105ac6e926a21"},
		{"fig4", Job{bench("burg"), core.None, fig4}, "e3638de7ece0c288"},
		{"l1 override", Job{bench("gs"), core.PCStride, l1}, "15b7dc48911ff673"},
		{"nodis", Job{bench("sis"), core.PSBConfPriority, noDis}, "27019dcd792e0b4a"},
		{"seed and budget", Job{bench("turb3d"), core.None, other}, "8a0db859dfd10375"},
	} {
		if got := tc.job.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintKeyCoversConfig guards the frozen key layout: every
// sim.Config field and every core.Options field (Buffers.*, SFM.*) must
// have a same-named place in the key, or two configurations that differ
// only in a new field would share a fingerprint and serve each other's
// results. A new field that can change a result needs a place in the
// key, which moves every fingerprint (update TestFingerprintGolden on
// purpose). A new field that cannot change a result belongs in
// ignored. Each option field must also reach the key, changing the
// fingerprint when changed alone, except the three the memory
// configuration decides (sim.Config.ResolvedOpts), which must not.
func TestFingerprintKeyCoversConfig(t *testing.T) {
	resolved := map[string]bool{"Buffers.BlockBytes": true, "Buffers.PageBytes": true, "SFM.BlockShift": true}
	ignored := map[string]bool{}
	covered := func(name string, cfg, key reflect.Type) {
		for i := 0; i < cfg.NumField(); i++ {
			f := cfg.Field(i).Name
			if _, ok := key.FieldByName(f); !ok && !ignored[f] {
				t.Errorf("%s.%s has no place in the fingerprint key", name, f)
			}
		}
	}
	covered("sim.Config", reflect.TypeOf(sim.Config{}), reflect.TypeOf(fingerprintKey{}).Field(2).Type)
	opts, frozen := reflect.TypeOf(core.Options{}), reflect.TypeOf(frozenOptions{})
	covered("core.Options", opts, frozen)

	base := Job{Workload: workload.All()[0], Variant: core.PSBConfPriority, Config: sim.Default()}
	for i := 0; i < opts.NumField(); i++ {
		part := opts.Field(i)
		if f, ok := frozen.FieldByName(part.Name); ok {
			covered("core.Options."+part.Name, part.Type, f.Type)
		}
		for k := 0; k < part.Type.NumField(); k++ {
			j := base
			v := reflect.ValueOf(&j.Config.Opts).Elem().Field(i).Field(k)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Int:
				v.SetInt(v.Int() + 1)
			case reflect.Uint:
				v.SetUint(v.Uint() + 1)
			default:
				t.Fatalf("core.Options.%s.%s: no change for kind %s", part.Name, part.Type.Field(k).Name, v.Kind())
			}
			name := part.Name + "." + part.Type.Field(k).Name
			if moved := j.Fingerprint() != base.Fingerprint(); moved == resolved[name] {
				t.Errorf("core.Options.%s: fingerprint moved %v, want %v", name, moved, !resolved[name])
			}
		}
	}
}

// TestFingerprintKeysResolvedGeometry: the memory configuration decides
// the stream buffers' block and page sizes and the SFM block shift
// (sim.Config.ResolvedOpts), so a job that sets them to other values
// runs the default machine. It must share the default job's
// fingerprint and its results.Encode bytes.
func TestFingerprintKeysResolvedGeometry(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 20_000
	base := Job{Workload: workload.All()[0], Variant: core.PSBConfPriority, Config: cfg}
	want, err := sim.RunChecked(context.Background(), base.Workload, base.Variant, base.Config)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*core.Options)
	}{
		{"Buffers.BlockBytes", func(o *core.Options) { o.Buffers.BlockBytes = 64 }},
		{"Buffers.PageBytes", func(o *core.Options) { o.Buffers.PageBytes = 8192 }},
		{"SFM.BlockShift", func(o *core.Options) { o.SFM.BlockShift = 6 }},
	} {
		j := base
		tc.edit(&j.Config.Opts)
		if j.Fingerprint() != base.Fingerprint() {
			t.Errorf("%s: fingerprint %s, want the default job's %s", tc.name, j.Fingerprint(), base.Fingerprint())
		}
		got, err := sim.RunChecked(context.Background(), j.Workload, j.Variant, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(results.Encode(got), results.Encode(want)) {
			t.Errorf("%s: result bytes differ from the default job's", tc.name)
		}
	}
}
