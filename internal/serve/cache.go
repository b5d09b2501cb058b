package serve

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/results"
	"repro/internal/sim"
)

// diskDemoteAfter is how many consecutive disk-tier I/O failures
// demote the node to memory-only operation.
const diskDemoteAfter = 3

// defaultProbeInterval is how often a demoted disk tier is re-probed
// for recovery.
const defaultProbeInterval = 2 * time.Second

// CacheStats is a snapshot of the result cache's traffic counters.
type CacheStats struct {
	// Entries and Capacity describe the in-memory LRU tier.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// MemHits and DiskHits count lookups served by each tier; Misses
	// count lookups that found nothing and caused a simulation.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// Evictions counts LRU entries dropped to stay within Capacity
	// (evicted results survive on disk when a disk tier is configured).
	Evictions uint64 `json:"evictions"`
	// DiskWrites counts results persisted; DiskErrors counts disk-tier
	// I/O failures (the cache degrades to memory-only on repeated
	// error rather than failing requests).
	DiskWrites uint64 `json:"disk_writes"`
	DiskErrors uint64 `json:"disk_errors"`
	// Quarantined counts corrupt entries detected by checksum on read,
	// moved aside, and transparently re-simulated.
	// QuarantineEvicted counts quarantined files garbage-collected to
	// keep the quarantine directory within its byte budget.
	Quarantined       uint64 `json:"quarantined"`
	QuarantineEvicted uint64 `json:"quarantine_evicted"`
	// DiskDegraded reports the disk tier is currently demoted
	// (memory-only operation; probes are retrying it).
	DiskDegraded bool `json:"disk_degraded"`
}

// CacheHealth is the cache-tier section of /healthz.
type CacheHealth struct {
	// Memory is always "ok" while the process lives; it exists so the
	// health document names both tiers explicitly.
	Memory string `json:"memory"`
	// Disk is "off" (no disk tier configured), "ok", or "degraded"
	// (demoted after repeated I/O failures; probing for recovery).
	Disk        string `json:"disk"`
	Quarantined uint64 `json:"quarantined"`
	DiskErrors  uint64 `json:"disk_errors"`
}

// ResultCache memoizes simulation results across requests, keyed by
// runner.Job.Fingerprint: an in-memory LRU bounded by entry count,
// optionally backed by a results.Store directory that survives
// restarts and LRU eviction, and that psbtables -cache-dir reads and
// writes too. The store detects and quarantines corrupt entries; the
// cache adds the serving policy on top: a quarantined entry is a miss
// the caller re-simulates and overwrites, repeated I/O failures demote
// the tier to memory-only — requests keep succeeding, /healthz reports
// degraded — and a periodic probe restores it once the disk behaves
// again.
type ResultCache struct {
	mu    sync.Mutex
	cap   int
	store *results.Store // nil without a disk tier
	ll    *list.List     // front = most recently used
	items map[string]*list.Element

	events        *EventLogger
	probeInterval time.Duration
	// diskFailStreak counts consecutive disk I/O failures; at
	// diskDemoteAfter the tier demotes. Any success resets it.
	diskFailStreak atomic.Int64
	diskDown       atomic.Bool
	lastProbe      atomic.Int64 // unix nanos of the last recovery probe

	memHits, diskHits, misses, evictions, diskWrites, diskErrors, quarantined atomic.Uint64
	quarantineEvicted                                                         atomic.Uint64
}

// lruEntry is one cached result in the LRU list.
type lruEntry struct {
	fp  string
	res sim.Result
}

// NewResultCache returns a cache bounded to entries in-memory results
// (entries <= 0 selects a generous default of 4096). dir, when
// non-empty, enables the disk tier: results are persisted to dir's
// results.Store and reloaded on memory misses.
func NewResultCache(entries int, dir string) *ResultCache {
	if entries <= 0 {
		entries = 4096
	}
	c := &ResultCache{
		cap:           entries,
		ll:            list.New(),
		items:         make(map[string]*list.Element),
		probeInterval: defaultProbeInterval,
	}
	if dir != "" {
		c.store = results.New(dir)
	}
	return c
}

// withDisk replaces the disk tier's file operations (fault injection).
func (c *ResultCache) withDisk(d results.Disk) *ResultCache {
	if c.store != nil {
		c.store.Disk = d
	}
	return c
}

// withEvents attaches a structured event logger.
func (c *ResultCache) withEvents(l *EventLogger) *ResultCache { c.events = l; return c }

// withProbeInterval overrides how often a demoted disk tier is
// re-probed (d <= 0 keeps the default).
func (c *ResultCache) withProbeInterval(d time.Duration) *ResultCache {
	if d > 0 {
		c.probeInterval = d
	}
	return c
}

// withQuarantineBudget overrides the quarantine directory's byte cap
// (b <= 0 keeps the default).
func (c *ResultCache) withQuarantineBudget(b int64) *ResultCache {
	if b > 0 && c.store != nil {
		c.store.QuarantineBudget = b
	}
	return c
}

// Len returns the number of in-memory entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Degraded reports whether the disk tier is demoted.
func (c *ResultCache) Degraded() bool { return c.diskDown.Load() }

// Stats returns a snapshot of the cache's counters.
func (c *ResultCache) Stats() CacheStats {
	return CacheStats{
		Entries:           c.Len(),
		Capacity:          c.cap,
		MemHits:           c.memHits.Load(),
		DiskHits:          c.diskHits.Load(),
		Misses:            c.misses.Load(),
		Evictions:         c.evictions.Load(),
		DiskWrites:        c.diskWrites.Load(),
		DiskErrors:        c.diskErrors.Load(),
		Quarantined:       c.quarantined.Load(),
		QuarantineEvicted: c.quarantineEvicted.Load(),
		DiskDegraded:      c.diskDown.Load(),
	}
}

// Health reports the per-tier health for /healthz.
func (c *ResultCache) Health() CacheHealth {
	h := CacheHealth{
		Memory:      "ok",
		Disk:        "off",
		Quarantined: c.quarantined.Load(),
		DiskErrors:  c.diskErrors.Load(),
	}
	if c.store != nil {
		if c.diskDown.Load() {
			h.Disk = "degraded"
		} else {
			h.Disk = "ok"
		}
	}
	return h
}

// Get looks the fingerprint up in both tiers, promoting a disk hit
// into the LRU. tier is "mem" or "disk" on a hit.
func (c *ResultCache) Get(fp string) (res sim.Result, tier string, ok bool) {
	return c.get(fp, true)
}

// peek is Get without the miss accounting, for the singleflight
// leader's re-check (its miss was already counted by the caller's
// Get).
func (c *ResultCache) peek(fp string) (res sim.Result, tier string, ok bool) {
	return c.get(fp, false)
}

func (c *ResultCache) get(fp string, countMiss bool) (res sim.Result, tier string, ok bool) {
	c.mu.Lock()
	if el, hit := c.items[fp]; hit {
		c.ll.MoveToFront(el)
		res = el.Value.(*lruEntry).res
		c.mu.Unlock()
		c.memHits.Add(1)
		return res, "mem", true
	}
	c.mu.Unlock()

	if c.diskUsable() {
		if res, ok := c.loadDisk(fp); ok {
			c.diskHits.Add(1)
			c.insert(fp, res)
			return res, "disk", true
		}
	}
	if countMiss {
		c.misses.Add(1)
	}
	return sim.Result{}, "", false
}

// Put stores a result in both tiers. Disk failures are counted and
// swallowed: a broken cache directory must degrade the cache, not the
// simulation service.
func (c *ResultCache) Put(fp string, res sim.Result) {
	c.insert(fp, res)
	if c.diskUsable() {
		if err := c.store.Save(fp, res); err != nil {
			c.diskFailed("write", fp, err)
		} else {
			c.diskOK()
			c.diskWrites.Add(1)
		}
	}
}

// insert adds (or refreshes) an in-memory entry, evicting from the LRU
// tail to stay within capacity.
func (c *ResultCache) insert(fp string, res sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).res = res
		return
	}
	c.items[fp] = c.ll.PushFront(&lruEntry{fp: fp, res: res})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*lruEntry).fp)
		c.evictions.Add(1)
	}
}

// loadDisk reads one persisted result. A corrupt entry, which the
// store has already quarantined, is reported as a miss — the caller
// re-simulates and the fresh Put overwrites it (self-healing). I/O
// errors count toward demotion.
func (c *ResultCache) loadDisk(fp string) (sim.Result, bool) {
	res, err := c.store.Load(fp)
	var corrupt *results.CorruptError
	switch {
	case err == nil:
		c.diskOK()
		return res, true
	case errors.As(err, &corrupt):
		// The bytes arrived but fail validation: the entry is corrupt,
		// not the disk.
		c.diskOK()
		c.noteQuarantine(corrupt)
	case !errors.Is(err, fs.ErrNotExist):
		c.diskFailed("read", fp, err)
	}
	return sim.Result{}, false
}

// noteQuarantine counts and logs one entry the store quarantined, and
// what the quarantine's garbage collector removed after it.
func (c *ResultCache) noteQuarantine(e *results.CorruptError) {
	c.quarantined.Add(1)
	c.events.Log("cache_quarantine", map[string]any{
		"fingerprint": e.Fingerprint,
		"bytes":       e.Size,
		"cause":       e.Err.Error(),
		"moved_to":    e.MovedTo,
	})
	if sw := e.Sweep; sw.Evicted > 0 {
		c.quarantineEvicted.Add(uint64(sw.Evicted))
		c.events.Log("cache_quarantine_gc", map[string]any{
			"evicted":         sw.Evicted,
			"freed_bytes":     sw.Freed,
			"remaining_bytes": sw.Remaining,
			"budget_bytes":    c.store.QuarantineBudget,
		})
	}
}

// QuarantineCount returns the number of entries quarantined so far.
func (c *ResultCache) QuarantineCount() uint64 { return c.quarantined.Load() }

// diskUsable reports whether disk operations should be attempted,
// probing a demoted tier for recovery when the probe interval has
// elapsed.
func (c *ResultCache) diskUsable() bool {
	if c.store == nil {
		return false
	}
	if !c.diskDown.Load() {
		return true
	}
	c.maybeProbe()
	return !c.diskDown.Load()
}

// diskFailed records one disk I/O failure and demotes the tier after
// diskDemoteAfter consecutive failures.
func (c *ResultCache) diskFailed(op, fp string, err error) {
	c.diskErrors.Add(1)
	streak := c.diskFailStreak.Add(1)
	c.events.Log("cache_disk_error", map[string]any{
		"op":          op,
		"fingerprint": fp,
		"cause":       err.Error(),
		"streak":      streak,
	})
	if streak >= diskDemoteAfter && c.diskDown.CompareAndSwap(false, true) {
		c.lastProbe.Store(time.Now().UnixNano())
		c.events.Log("cache_disk_degraded", map[string]any{
			"consecutive_errors": streak,
			"probe_interval_sec": c.probeInterval.Seconds(),
		})
	}
}

// diskOK resets the failure streak after any successful disk
// operation.
func (c *ResultCache) diskOK() { c.diskFailStreak.Store(0) }

// maybeProbe attempts recovery of a demoted disk tier at most once per
// probe interval: write a sentinel file through the store's (possibly
// still faulty) disk layer, read it back, and verify the bytes.
// Success restores the tier.
func (c *ResultCache) maybeProbe() {
	now := time.Now().UnixNano()
	last := c.lastProbe.Load()
	if now-last < c.probeInterval.Nanoseconds() || !c.lastProbe.CompareAndSwap(last, now) {
		return
	}
	path := filepath.Join(c.store.Dir, ".probe")
	want := []byte(fmt.Sprintf("probe %d\n", now))
	if err := c.store.Disk.Write(path, want); err != nil {
		c.events.Log("cache_disk_probe", map[string]any{"ok": false, "cause": err.Error()})
		return
	}
	got, err := c.store.Disk.Read(path)
	if err == nil && string(got) != string(want) {
		err = fmt.Errorf("probe readback mismatch")
	}
	os.Remove(path)
	if err != nil {
		c.events.Log("cache_disk_probe", map[string]any{"ok": false, "cause": err.Error()})
		return
	}
	c.diskFailStreak.Store(0)
	if c.diskDown.CompareAndSwap(true, false) {
		c.events.Log("cache_disk_recovered", map[string]any{})
	}
}
