package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/results"
)

// TestParseFaultPlan checks the spec syntax round-trips and rejects
// malformed input.
func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("seed=7,sim-panic=0.1,disk-corrupt=0.05,disk-fail=0.3,disk-delay=2ms,queue-drop=0.01,for=12s")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPlan{
		Seed: 7, SimPanic: 0.1, DiskCorrupt: 0.05, DiskFail: 0.3,
		DiskDelay: 2 * time.Millisecond, QueueDrop: 0.01, For: 12 * time.Second,
	}
	if p != want {
		t.Errorf("parsed %+v, want %+v", p, want)
	}
	// String renders back into parseable syntax.
	p2, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if p2 != p {
		t.Errorf("String round-trip changed the plan: %+v != %+v", p2, p)
	}

	// Empty spec is the zero plan; sim-slow defaults its duration.
	if z, err := ParseFaultPlan("  "); err != nil || !z.Zero() {
		t.Errorf("empty spec: plan %+v err %v, want zero plan", z, err)
	}
	slow, err := ParseFaultPlan("sim-slow=0.5")
	if err != nil || slow.SimSlowDur != 50*time.Millisecond {
		t.Errorf("sim-slow default dur = %v (err %v), want 50ms", slow.SimSlowDur, err)
	}

	for _, bad := range []string{
		"sim-panic",         // not key=value
		"sim-panic=2",       // fraction out of range
		"sim-panic=x",       // not a number
		"disk-delay=-1s",    // negative duration
		"seed=9.5",          // not an integer
		"unknown-knob=0.5",  // unknown key
		"for=never",         // unparseable duration
		"sim-slow-dur=-5ms", // negative duration
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) succeeded, want error", bad)
		}
	}
}

// TestInjectorDeterminism checks two injectors armed with the same plan
// draw identical decision streams, and different seeds draw different
// ones.
func TestInjectorDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, QueueDrop: 0.5}
	const draws = 256
	stream := func(p FaultPlan) []bool {
		in := NewInjector(p)
		out := make([]bool, draws)
		for i := range out {
			out[i] = in.DropQueueSlot()
		}
		return out
	}
	a, b := stream(plan), stream(plan)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between same-seed injectors", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == draws {
		t.Errorf("hits = %d/%d at p=0.5, want a mix", hits, draws)
	}
	other := plan
	other.Seed = 43
	c := stream(other)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == draws {
		t.Errorf("seed 42 and 43 drew identical streams")
	}
}

// TestInjectorClearAndWindow checks Clear stops injection immediately
// and the For window expires on its own.
func TestInjectorClearAndWindow(t *testing.T) {
	if in := NewInjector(FaultPlan{}); in != nil {
		t.Fatalf("zero plan armed an injector")
	}
	var nilIn *Injector
	if nilIn.Active() || nilIn.DropQueueSlot() || nilIn.SimHook() != nil {
		t.Fatalf("nil injector is not inert")
	}
	nilIn.Clear() // must not panic

	in := NewInjector(FaultPlan{Seed: 1, QueueDrop: 1})
	if !in.Active() || !in.DropQueueSlot() {
		t.Fatalf("armed injector at p=1 did not fire")
	}
	in.Clear()
	if in.Active() {
		t.Errorf("Active after Clear")
	}
	for i := 0; i < 64; i++ {
		if in.DropQueueSlot() {
			t.Fatalf("injector fired after Clear")
		}
	}
	if c := in.Counters(); c.QueueDrops != 1 {
		t.Errorf("queue drops = %d, want the 1 pre-Clear hit", c.QueueDrops)
	}

	windowed := NewInjector(FaultPlan{Seed: 1, QueueDrop: 1, For: time.Millisecond})
	time.Sleep(5 * time.Millisecond)
	if windowed.Active() || windowed.DropQueueSlot() {
		t.Errorf("injector still firing past its For window")
	}
}

// TestCorruptBytesAlwaysDetected checks every corruption mode produces
// bytes the entry decoder rejects — the property the self-healing cache
// depends on.
func TestCorruptBytesAlwaysDetected(t *testing.T) {
	entry := results.EncodeEntry(tinyResult(t, core.None, false))
	for r := uint64(0); r < 64; r++ {
		damaged := corruptBytes(entry, r)
		if _, err := results.DecodeEntry(damaged); !errors.Is(err, results.ErrCorrupt) {
			t.Errorf("r=%d: corruption (len %d -> %d) not detected: %v",
				r, len(entry), len(damaged), err)
		}
	}
	// Degenerate input must not panic.
	corruptBytes(nil, 0)
	corruptBytes(nil, 1)
	corruptBytes(nil, 2)
}

// TestFaultDiskPassThrough checks an inactive injector's disk wrapper
// is transparent.
func TestFaultDiskPassThrough(t *testing.T) {
	in := NewInjector(FaultPlan{Seed: 3, DiskFail: 1, DiskCorrupt: 1})
	in.Clear()
	dir := t.TempDir()
	fd := faultDisk{in: in, next: results.OSDisk{}}
	if err := fd.Write(dir+"/x", []byte("payload")); err != nil {
		t.Fatalf("cleared faultDisk write failed: %v", err)
	}
	got, err := fd.Read(dir + "/x")
	if err != nil || string(got) != "payload" {
		t.Fatalf("cleared faultDisk read = %q, %v", got, err)
	}
	if c := in.Counters(); c.DiskFails != 0 || c.DiskCorrupts != 0 {
		t.Errorf("cleared injector counted faults: %+v", c)
	}
}
