package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/results"
)

// TestQuarantineGCBudget floods the quarantine directory past its byte
// budget and checks the GC evicts oldest-first, keeps the directory
// bounded, counts the evictions, and logs the event. Corruption
// forensics should keep the freshest evidence, not grow forever.
func TestQuarantineGCBudget(t *testing.T) {
	dir := t.TempDir()
	var events bytes.Buffer
	// Budget fits two 64-byte corpses; the third quarantine must evict.
	c := NewResultCache(4, dir).
		withEvents(NewEventLogger(&events)).
		withQuarantineBudget(150)

	garbage := bytes.Repeat([]byte("x"), 64) // fails entry decoding
	base := time.Now().Add(-4 * time.Hour)
	for i := 0; i < 4; i++ {
		fp := fmt.Sprintf("fp%d", i)
		path := c.store.Path(fp)
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes so "oldest" is deterministic; rename into the
		// quarantine preserves them.
		if err := os.Chtimes(path, time.Time{}, base.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := c.Get(fp); ok {
			t.Fatalf("corrupt entry %s served as a hit", fp)
		}
	}

	if n := c.QuarantineCount(); n != 4 {
		t.Fatalf("quarantined = %d, want 4", n)
	}
	st := c.Stats()
	if st.QuarantineEvicted != 2 {
		t.Errorf("quarantine_evicted = %d, want 2 (oldest two past the budget)", st.QuarantineEvicted)
	}
	qdir := filepath.Join(dir, results.QuarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var names []string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
		names = append(names, e.Name())
	}
	if total > 150 {
		t.Errorf("quarantine holds %d bytes, budget is 150", total)
	}
	// The survivors are the two newest; fp0 and fp1 were the oldest.
	for _, gone := range []string{"fp0.psbc", "fp1.psbc"} {
		if _, err := os.Stat(filepath.Join(qdir, gone)); !os.IsNotExist(err) {
			t.Errorf("oldest entry %s survived GC (have %v)", gone, names)
		}
	}
	for _, kept := range []string{"fp2.psbc", "fp3.psbc"} {
		if _, err := os.Stat(filepath.Join(qdir, kept)); err != nil {
			t.Errorf("newest entry %s evicted (have %v)", kept, names)
		}
	}
	if !strings.Contains(events.String(), `"event":"cache_quarantine_gc"`) {
		t.Errorf("no cache_quarantine_gc event logged: %s", events.String())
	}
}

// TestQuarantineGCUnderBudget checks the GC leaves a within-budget
// directory alone.
func TestQuarantineGCUnderBudget(t *testing.T) {
	dir := t.TempDir()
	c := NewResultCache(4, dir) // default 64 MiB budget
	if err := os.WriteFile(c.store.Path("fp"), []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get("fp"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := c.Stats(); st.QuarantineEvicted != 0 {
		t.Errorf("quarantine_evicted = %d, want 0 under budget", st.QuarantineEvicted)
	}
	if _, err := os.Stat(filepath.Join(dir, results.QuarantineDir, "fp.psbc")); err != nil {
		t.Errorf("quarantined entry missing: %v", err)
	}
}
