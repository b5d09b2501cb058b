package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// machine is the record every report carries: what the numbers were
// measured on, and how much the host drifted while they were.
type machine struct {
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUQuota   string `json:"cgroup_cpu_quota"`
	Commit     string `json:"commit"`
	TreeSHA    string `json:"tree_sha256"`

	// Host drift over the run: steal time as a share of all CPU time,
	// the 1-minute load average at both ends, and a SHA-256 throughput
	// probe (GB/s) at both ends, which moves with the host's speed but
	// not with the simulator's.
	StealPct     float64 `json:"steal_pct"`
	Load1Start   float64 `json:"load1_start"`
	Load1End     float64 `json:"load1_end"`
	SHAGBpsStart float64 `json:"sha256_gbps_start"`
	SHAGBpsEnd   float64 `json:"sha256_gbps_end"`
	WallSeconds  float64 `json:"wall_s"`

	stealStart [2]uint64
	started    time.Time
}

// startMachine snapshots the static record and the drift counters.
func startMachine(root string) *machine {
	m := &machine{
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUQuota:   cgroupQuota(),
		Commit:     gitCommit(root),
		TreeSHA:    treeDigest(root),
		started:    time.Now(),
	}
	m.stealStart = cpuSteal()
	m.Load1Start = load1()
	m.SHAGBpsStart = shaProbe()
	return m
}

// finish records the drift since startMachine.
func (m *machine) finish() {
	m.SHAGBpsEnd = shaProbe()
	m.Load1End = load1()
	end := cpuSteal()
	m.StealPct = 100 * ratio(float64(end[0]-m.stealStart[0]), float64(end[1]-m.stealStart[1]))
	m.WallSeconds = time.Since(m.started).Seconds()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cgroupQuota reports the CPU quota as "quota/period" (cgroup v2
// cpu.max or v1 cfs files), "max" when unlimited.
func cgroupQuota() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		return strings.TrimSpace(string(b))
	}
	q, err1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, err2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if err1 == nil && err2 == nil {
		return strings.TrimSpace(string(q)) + "/" + strings.TrimSpace(string(p))
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; a checkout that is not a
// repository reports "none" and is identified by its tree digest.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == name {
				return sha
			}
		}
	}
	return "unknown"
}

// treeDigest hashes the Go sources and module files of the checkout
// (names and contents, in path order), so two reports can tell whether
// they measured the same code.
func treeDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuSteal returns the steal and total jiffies of the aggregate cpu
// line of /proc/stat.
func cpuSteal() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var total, steal uint64
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]uint64{steal, total}
}

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// shaProbe hashes 32 MiB and returns the throughput in GB/s.
func shaProbe() float64 {
	buf := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 32; i++ {
		sha256.Sum256(buf)
	}
	return float64(32<<20) / time.Since(start).Seconds() / 1e9
}
