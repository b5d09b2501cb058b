package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tinyCfg returns a fast, valid configuration.
func tinyCfg() sim.Config {
	cfg := sim.Default()
	cfg.MaxInsts = 3_000
	return cfg
}

// tinyResult simulates one real cell, so cached values carry the full
// nested Result shape (stats blocks, histograms).
func tinyResult(t *testing.T, v core.Variant, collectHist bool) sim.Result {
	t.Helper()
	cfg := tinyCfg()
	cfg.CollectFig4 = collectHist
	return sim.Run(workload.All()[0], v, cfg)
}

// TestResultCacheLRUBounds fills the cache past capacity and checks
// the entry count stays bounded, eviction is least-recently-used, and
// the counters track it.
func TestResultCacheLRUBounds(t *testing.T) {
	c := NewResultCache(2, "")
	res := tinyResult(t, core.None, false)
	c.Put("a", res)
	c.Put("b", res)
	c.Put("c", res) // evicts a
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, _, ok := c.Get("a"); ok {
		t.Errorf("a survived eviction from a 2-entry cache")
	}
	// b was least-recently-used; touching it should make c the victim.
	if _, _, ok := c.Get("b"); !ok {
		t.Fatalf("b missing")
	}
	c.Put("d", res) // evicts c, not b
	if _, _, ok := c.Get("b"); !ok {
		t.Errorf("b evicted despite being recently used")
	}
	if _, _, ok := c.Get("c"); ok {
		t.Errorf("c survived eviction despite being LRU")
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

// TestResultCacheDiskRoundTrip stores results through the disk tier,
// drops them from memory via eviction, and checks the reloaded result
// renders byte-identically — including the Fig4 histogram, the
// hardest field to round-trip.
func TestResultCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewResultCache(1, dir)
	plain := tinyResult(t, core.PSBConfPriority, false)
	hist := tinyResult(t, core.None, true)
	if hist.Hist == nil {
		t.Fatalf("expected a delta histogram on the CollectFig4 result")
	}
	c.Put("plain", plain)
	c.Put("hist", hist) // evicts plain from memory; both persist on disk

	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	got, tier, ok := c.Get("plain")
	if !ok {
		t.Fatalf("plain not found after eviction with a disk tier")
	}
	if tier != "disk" {
		t.Errorf("tier = %q, want disk", tier)
	}
	if !bytes.Equal(results.Encode(got), results.Encode(plain)) {
		t.Errorf("disk round-trip changed the rendered result")
	}

	// hist was just written; fetch it through a cold cache to force
	// the disk path for the histogram too.
	c2 := NewResultCache(4, dir)
	got2, tier2, ok := c2.Get("hist")
	if !ok || tier2 != "disk" {
		t.Fatalf("hist: ok=%v tier=%q, want disk hit", ok, tier2)
	}
	if !bytes.Equal(results.Encode(got2), results.Encode(hist)) {
		t.Errorf("histogram result changed across the disk round-trip")
	}

	// A disk hit promotes into memory: the second Get must be a mem hit.
	if _, tier3, _ := c2.Get("hist"); tier3 != "mem" {
		t.Errorf("post-promotion tier = %q, want mem", tier3)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemHits != 1 {
		t.Errorf("disk/mem hits = %d/%d, want 1/1", st.DiskHits, st.MemHits)
	}
}

// TestResultCacheCorruptDiskEntry checks a corrupt persisted entry is
// treated as a miss, not an error.
func TestResultCacheCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c := NewResultCache(4, dir)
	if err := os.WriteFile(c.store.Path("bad"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get("bad"); ok {
		t.Fatalf("corrupt entry served as a hit")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// TestResultCacheSelfHealsCorruption corrupts a persisted entry three
// ways — truncation (a torn write), a single bit flip, and a
// zero-length file — and checks each is quarantined on read, served as
// a miss, and healed by the next Put: the re-fetched result is
// byte-identical to the original.
func TestResultCacheSelfHealsCorruption(t *testing.T) {
	res := tinyResult(t, core.None, false)
	want := results.Encode(res)
	damage := map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flipped": func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		"zero-length": func([]byte) []byte { return nil },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			NewResultCache(4, dir).Put("fp", res)
			path := filepath.Join(dir, "fp.psbc")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}

			// A cold cache must detect the corruption, quarantine the
			// file, and report a miss.
			var events bytes.Buffer
			c := NewResultCache(4, dir).withEvents(NewEventLogger(&events))
			if _, _, ok := c.Get("fp"); ok {
				t.Fatalf("corrupt entry served as a hit")
			}
			if n := c.QuarantineCount(); n != 1 {
				t.Fatalf("quarantined = %d, want 1", n)
			}
			if _, err := os.Stat(filepath.Join(dir, results.QuarantineDir, "fp.psbc")); err != nil {
				t.Errorf("corrupt entry not moved to quarantine: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry still present at %s", path)
			}
			if !strings.Contains(events.String(), `"event":"cache_quarantine"`) {
				t.Errorf("no cache_quarantine event logged: %s", events.String())
			}
			if h := c.Health(); h.Disk != "ok" || h.Quarantined != 1 {
				t.Errorf("health after quarantine = %+v, want disk ok, 1 quarantined", h)
			}

			// The caller re-simulates and Puts; a fresh cold cache must
			// then serve the healed entry byte-identically from disk.
			c.Put("fp", res)
			healed := NewResultCache(4, dir)
			got, tier, ok := healed.Get("fp")
			if !ok || tier != "disk" {
				t.Fatalf("healed entry: ok=%v tier=%q, want disk hit", ok, tier)
			}
			if !bytes.Equal(results.Encode(got), want) {
				t.Errorf("healed entry differs from the original result")
			}
		})
	}
}

// flakyDisk is a results.Disk whose operations fail while `broken` is set.
type flakyDisk struct {
	broken *atomic.Bool
	next   results.Disk
}

func (f flakyDisk) Read(path string) ([]byte, error) {
	if f.broken.Load() {
		return nil, errDiskBroken
	}
	return f.next.Read(path)
}

func (f flakyDisk) Write(path string, data []byte) error {
	if f.broken.Load() {
		return errDiskBroken
	}
	return f.next.Write(path, data)
}

var errDiskBroken = errors.New("test: disk broken")

// TestResultCacheDiskDegradeRecover drives the disk tier through
// demotion (consecutive I/O failures) and recovery (a probe through a
// healthy disk), checking requests keep succeeding throughout and the
// health report tracks the transitions.
func TestResultCacheDiskDegradeRecover(t *testing.T) {
	dir := t.TempDir()
	var broken atomic.Bool
	var events bytes.Buffer
	c := NewResultCache(4, dir).
		withDisk(flakyDisk{broken: &broken, next: results.OSDisk{}}).
		withEvents(NewEventLogger(&events)).
		withProbeInterval(time.Millisecond)
	res := tinyResult(t, core.None, false)

	broken.Store(true)
	// Each Put fails its disk write; after diskDemoteAfter consecutive
	// failures the tier demotes. Memory service is unaffected.
	for i := 0; i < diskDemoteAfter; i++ {
		c.Put(fmt.Sprintf("fp%d", i), res)
	}
	if !c.Degraded() {
		t.Fatalf("not degraded after %d consecutive disk failures", diskDemoteAfter)
	}
	if h := c.Health(); h.Disk != "degraded" || h.DiskErrors != diskDemoteAfter {
		t.Errorf("health = %+v, want degraded with %d errors", h, diskDemoteAfter)
	}
	if !strings.Contains(events.String(), `"event":"cache_disk_degraded"`) {
		t.Errorf("no cache_disk_degraded event: %s", events.String())
	}
	if _, _, ok := c.Get("fp0"); !ok {
		t.Fatalf("memory tier lost entries during disk demotion")
	}

	// While degraded, disk operations are skipped entirely (no error
	// growth) and writes do not reach the directory.
	errsBefore := c.Stats().DiskErrors
	c.Put("while-down", res)
	if got := c.Stats().DiskErrors; got != errsBefore {
		t.Errorf("degraded Put touched the disk: errors %d -> %d", errsBefore, got)
	}

	// Heal the disk; the next operation past the probe interval probes
	// and restores the tier.
	broken.Store(false)
	time.Sleep(3 * time.Millisecond)
	c.Put("after-heal", res)
	if c.Degraded() {
		t.Fatalf("still degraded after a successful probe")
	}
	if !strings.Contains(events.String(), `"event":"cache_disk_recovered"`) {
		t.Errorf("no cache_disk_recovered event: %s", events.String())
	}
	if h := c.Health(); h.Disk != "ok" {
		t.Errorf("health after recovery = %+v, want disk ok", h)
	}
	// Post-recovery writes persist again.
	cold := NewResultCache(4, dir)
	if _, tier, ok := cold.Get("after-heal"); !ok || tier != "disk" {
		t.Errorf("post-recovery entry: ok=%v tier=%q, want disk hit", ok, tier)
	}
}
