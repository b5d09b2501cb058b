// Package serve is the simulation-as-a-service layer: a result cache
// keyed by runner.Job.Fingerprint, singleflight deduplication of
// concurrent identical requests, and an HTTP server that fans incoming
// cells into the shared checked-execution dispatcher. cmd/psbserved is
// the daemon front end; cmd/psbload is the load generator that
// benchmarks it.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// JobRequest names one or more simulation cells in the JSON request
// vocabulary: a benchmark, one scheme (or a scheme list), and the
// machine knobs the CLI tools expose. Zero-valued knobs inherit the
// server's base configuration, so a minimal request is just
// {"bench":"health","scheme":"ConfAlloc-Priority"}.
type JobRequest struct {
	// Bench is the workload name (required); "all" expands to every
	// registered benchmark.
	Bench string `json:"bench"`
	// Scheme is one prefetcher configuration by its paper name.
	// Exactly one of Scheme and Schemes must be set; "all" expands to
	// every configuration.
	Scheme string `json:"scheme,omitempty"`
	// Schemes is a list of prefetcher configurations, for fanning one
	// benchmark across schemes in a single request.
	Schemes []string `json:"schemes,omitempty"`
	// Insts overrides the instruction budget (0 = server default).
	Insts uint64 `json:"insts,omitempty"`
	// Seed overrides the workload layout seed (nil = server default).
	Seed *int64 `json:"seed,omitempty"`
	// L1Size and L1Ways override the L1 data cache geometry
	// (0 = server default).
	L1Size int `json:"l1_size,omitempty"`
	L1Ways int `json:"l1_ways,omitempty"`
	// NoDis disables perfect store-set disambiguation.
	NoDis bool `json:"nodis,omitempty"`
	// CollectFig4 attaches the Markov delta-bits histogram to the
	// result (a different cell: histogram collection is part of the
	// fingerprint).
	CollectFig4 bool `json:"collect_fig4,omitempty"`
	// Sample selects the sampled tier: functional fast-forward with
	// detailed measurement intervals and an IPC estimate with
	// confidence bounds in the result's Sampled section. Sampled and
	// exact cells have different fingerprints, so they cache
	// independently. The period/len/warmup knobs override the
	// sampling parameters (0 = simulator defaults); they are ignored
	// without "sample": true.
	Sample       bool   `json:"sample,omitempty"`
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	SampleLen    uint64 `json:"sample_len,omitempty"`
	SampleWarmup uint64 `json:"sample_warmup,omitempty"`
}

// BatchRequest is the request body of POST /v1/batch.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// ArtifactRequest is the request body of POST /v1/artifact: one named
// table or figure from internal/experiments.
type ArtifactRequest struct {
	// Name is the artifact: table2 or fig4 through fig11.
	Name string `json:"name"`
	// Insts and Seed override the base configuration (0/nil = server
	// default), exactly as psbtables -insts/-seed would.
	Insts uint64 `json:"insts,omitempty"`
	Seed  *int64 `json:"seed,omitempty"`
	// CSV selects CSV rendering instead of the aligned text table.
	CSV bool `json:"csv,omitempty"`
}

// decodeStrict unmarshals JSON rejecting unknown fields and trailing
// garbage, so typos in request bodies fail loudly instead of silently
// simulating the default cell.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing any
	if dec.Decode(&trailing) == nil {
		return fmt.Errorf("unexpected trailing data after JSON body")
	}
	return nil
}

// DecodeJobRequest parses a single-cell request body.
func DecodeJobRequest(data []byte) (JobRequest, error) {
	var r JobRequest
	if err := decodeStrict(data, &r); err != nil {
		return JobRequest{}, err
	}
	return r, nil
}

// DecodeBatchRequest parses a batch request body.
func DecodeBatchRequest(data []byte) (BatchRequest, error) {
	var r BatchRequest
	if err := decodeStrict(data, &r); err != nil {
		return BatchRequest{}, err
	}
	return r, nil
}

// DecodeArtifactRequest parses an artifact request body.
func DecodeArtifactRequest(data []byte) (ArtifactRequest, error) {
	var r ArtifactRequest
	if err := decodeStrict(data, &r); err != nil {
		return ArtifactRequest{}, err
	}
	return r, nil
}

// config applies the request's overrides to the server's base
// configuration. The returned config validates like any CLI-built one;
// the trace and worker policy always come from the server, never the
// request, and neither is part of the job fingerprint.
func (r JobRequest) config(base sim.Config) sim.Config {
	cfg := base
	if r.Insts != 0 {
		cfg.MaxInsts = r.Insts
	}
	if r.Seed != nil {
		cfg.Seed = *r.Seed
	}
	if r.L1Size != 0 {
		cfg.Mem.L1D.SizeBytes = r.L1Size
	}
	if r.L1Ways != 0 {
		cfg.Mem.L1D.Ways = r.L1Ways
	}
	if r.NoDis {
		cfg.CPU.Disambiguation = cpu.DisNone
	}
	cfg.CollectFig4 = r.CollectFig4
	if r.Sample {
		cfg.SampleMode = sim.SampleOn
		cfg.SamplePeriod = r.SamplePeriod
		cfg.SampleLen = r.SampleLen
		cfg.SampleWarmup = r.SampleWarmup
	}
	return cfg
}

// Jobs expands the request into concrete runner jobs against the given
// base configuration, validating everything a simulation would
// validate: the benchmark name, each scheme name, and the assembled
// sim.Config (via sim.Config.Validate, so the error text matches the
// CLI's *ConfigError rendering exactly).
func (r JobRequest) Jobs(base sim.Config) ([]runner.Job, error) {
	if r.Bench == "" {
		return nil, fmt.Errorf("missing \"bench\" (valid benchmarks: %s, or \"all\")",
			strings.Join(workload.Names(), ", "))
	}
	var benches []workload.Workload
	if r.Bench == "all" {
		benches = workload.All()
	} else {
		w, err := workload.ByName(r.Bench)
		if err != nil {
			return nil, fmt.Errorf("unknown benchmark %q (valid benchmarks: %s, or \"all\")",
				r.Bench, strings.Join(workload.Names(), ", "))
		}
		benches = []workload.Workload{w}
	}

	schemes, err := r.schemes()
	if err != nil {
		return nil, err
	}

	cfg := r.config(base)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	jobs := make([]runner.Job, 0, len(benches)*len(schemes))
	for _, w := range benches {
		for _, v := range schemes {
			jobs = append(jobs, runner.Job{Workload: w, Variant: v, Config: cfg})
		}
	}
	return jobs, nil
}

// schemes resolves the request's scheme specification to variants.
func (r JobRequest) schemes() ([]core.Variant, error) {
	names := r.Schemes
	switch {
	case r.Scheme != "" && len(r.Schemes) > 0:
		return nil, fmt.Errorf("set \"scheme\" or \"schemes\", not both")
	case r.Scheme != "":
		names = []string{r.Scheme}
	case len(names) == 0:
		return nil, fmt.Errorf("missing \"scheme\" (valid schemes: %s, or \"all\")", strings.Join(core.VariantNames(), ", "))
	}
	var out []core.Variant
	for _, name := range names {
		if name == "all" {
			out = append(out, core.Variants()...)
			continue
		}
		v, err := core.VariantByName(name)
		if err != nil {
			return nil, fmt.Errorf("unknown scheme %q (valid schemes: %s, or \"all\")", name, strings.Join(core.VariantNames(), ", "))
		}
		out = append(out, v)
	}
	return out, nil
}

// EncodeResult is results.Encode, the canonical result bytes; the
// result store owns that encoding.
func EncodeResult(r sim.Result) []byte { return results.Encode(r) }
