package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// refs are the committed references every run checks against:
// sha256 of the canonical bytes (serve.EncodeResult) of every fixed
// cell, keyed "workload/scheme", plus the exact IPCs at the
// sampled-long budget that ipc_err_pct divides by.
type refs struct {
	Matrix      map[string]string  `json:"matrix"`
	SampledLong map[string]string  `json:"sampled_long"`
	ClusterHot  map[string]string  `json:"cluster_hot"`
	ExactIPC2M  map[string]float64 `json:"exact_ipc_2m"`
}

const refsFile = "refs.json"

// cell is one workload x scheme pair of a fixed cell set.
type cell struct {
	w workload.Workload
	v core.Variant
}

func (c cell) key() string { return c.w.Name + "/" + c.v.String() }

func cross(ws []workload.Workload, vs []core.Variant) []cell {
	out := make([]cell, 0, len(ws)*len(vs))
	for _, w := range ws {
		for _, v := range vs {
			out = append(out, cell{w, v})
		}
	}
	return out
}

// matrixConfig is psbtables' default cell: 500K instructions, exact,
// event cycle mode, memory trace cache.
func matrixConfig() sim.Config {
	cfg := sim.Default()
	cfg.TraceMode = sim.TraceMemory
	cfg.CPU.CycleMode = cpu.CycleModeEvent
	return cfg
}

// sampledConfig is a psbtables -sample -insts 2000000 cell with the
// default sampling parameters.
func sampledConfig() sim.Config {
	cfg := matrixConfig()
	cfg.MaxInsts = 2_000_000
	cfg.SampleMode = sim.SampleOn
	return cfg
}

// clusterBase is the base configuration of every cluster-mix node.
func clusterBase() sim.Config {
	cfg := matrixConfig()
	cfg.MaxInsts = 60_000
	return cfg
}

func matrixCells() []cell { return cross(workload.All(), experiments.Schemes()) }

func sampledCells() []cell {
	return cross(workload.All(), []core.Variant{core.None, core.PCStride, core.PSBConfPriority})
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func resultDigest(r sim.Result) string { return digest(serve.EncodeResult(r)) }

func loadRefs(path string) (*refs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var r refs
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &r, nil
}

// checkDigest compares a cell's canonical bytes with the reference; a
// cell without a reference fails too.
func checkDigest(want map[string]string, key string, b []byte) error {
	ref, ok := want[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference digest", key)
	case digest(b) != ref:
		return fmt.Errorf("%s: canonical bytes differ from the reference (sha256 %s, want %s)",
			key, digest(b), ref)
	}
	return nil
}

// makeRefs simulates every fixed cell once and writes refs.json.
func makeRefs(path string) error {
	ctx := context.Background()
	out := refs{
		Matrix:      map[string]string{},
		SampledLong: map[string]string{},
		ClusterHot:  map[string]string{},
		ExactIPC2M:  map[string]float64{},
	}
	run := func(cfg sim.Config, c cell) (sim.Result, error) {
		r, err := sim.RunChecked(ctx, c.w, c.v, cfg)
		if err != nil {
			return r, fmt.Errorf("%s: %w", c.key(), err)
		}
		return r, nil
	}
	for _, c := range matrixCells() {
		r, err := run(matrixConfig(), c)
		if err != nil {
			return err
		}
		out.Matrix[c.key()] = resultDigest(r)
		if r, err = run(clusterBase(), c); err != nil {
			return err
		}
		out.ClusterHot[c.key()] = resultDigest(r)
	}
	exact := sampledConfig()
	exact.SampleMode = sim.SampleOff
	for _, c := range sampledCells() {
		r, err := run(sampledConfig(), c)
		if err != nil {
			return err
		}
		out.SampledLong[c.key()] = resultDigest(r)
		if r, err = run(exact, c); err != nil {
			return err
		}
		out.ExactIPC2M[c.key()] = r.IPC()
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
