package main

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/serve"
)

// The cluster-mix traffic: a constant-rate open loop (independent
// users who do not wait for each other), so a stalled request delays
// the ones due after it and the delay is counted. The rate and mix are
// sized so the two connections are rarely both busy: a cold cell holds
// its connection for a whole simulation (~25 ms), a hot one for well
// under a millisecond. Every block of blockLen consecutive requests
// holds the same mix in a seeded order, so runs differ in which cells
// and nodes they hit but not in how much of each kind of work they do.
const (
	clusterRate   = 100.0 // requests offered per second
	clusterConns  = 2     // connections the generator keeps in flight
	blockLen      = 100
	coldPerBlock  = 2 // single uncached cells on /v1/sim
	batchPerBlock = 6 // /v1/batch of hot cells ...
	batchCold     = 2 // ... of which this many also carry one cold cell
	artPerBlock   = 1 // /v1/artifact of a matrix-backed figure
	batchHotMin   = 4
	batchHotExtra = 5 // a batch holds batchHotMin + [0, batchHotExtra) hot cells
)

// artifactNames are the artifacts whose cells are all hot.
var artifactNames = []string{"table2", "fig5", "fig6", "fig7", "fig8", "fig9"}

type reqKind int

const (
	kindHot reqKind = iota
	kindCold
	kindBatch
	kindArtifact
)

func (k reqKind) String() string {
	return [...]string{"hot", "cold", "batch", "artifact"}[k]
}

// request is one scheduled request: when it is due, which node it goes
// to, and the cells (indices into the run's cell table) it asks for.
type request struct {
	Due      time.Duration
	Node     int
	Kind     reqKind
	Cells    []int
	Artifact string
}

// cellTable lists a run's cells: the 36 hot matrix cells first, then
// the cold cells in the order the schedule consumes them.
type cellTable struct {
	reqs []serve.JobRequest
	hot  int
}

func (t *cellTable) isHot(i int) bool { return i < t.hot }

// newCellTable builds the hot cells and a seeded order of the cold
// space: every matrix cell under every L1D geometry and disambiguation
// setting except the base one, at the base seed and budget, so each
// cold cell replays one of the six recorded streams. The order visits
// every workload x scheme once per round of 36 (in a seeded order,
// with a seeded variant each), so a run's cold cells cost the same mix
// of simulation work whatever the seed.
func newCellTable(seed int64) *cellTable {
	t := &cellTable{}
	for _, c := range matrixCells() {
		t.reqs = append(t.reqs, serve.JobRequest{Bench: c.w.Name, Scheme: c.v.String()})
	}
	t.hot = len(t.reqs)
	rng := rand.New(rand.NewSource(seed))
	base := clusterBase().Mem.L1D
	var variants []serve.JobRequest
	for _, size := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		for _, ways := range []int{1, 2, 4, 8} {
			for _, nodis := range []bool{false, true} {
				if size != base.SizeBytes || ways != base.Ways || nodis {
					variants = append(variants, serve.JobRequest{L1Size: size, L1Ways: ways, NoDis: nodis})
				}
			}
		}
	}
	perCell := make([][]serve.JobRequest, t.hot)
	for i := range perCell {
		perCell[i] = append([]serve.JobRequest(nil), variants...)
		rng.Shuffle(len(variants), func(a, b int) { perCell[i][a], perCell[i][b] = perCell[i][b], perCell[i][a] })
	}
	for round := range variants {
		for _, i := range rng.Perm(t.hot) {
			r := perCell[i][round]
			r.Bench, r.Scheme = t.reqs[i].Bench, t.reqs[i].Scheme
			t.reqs = append(t.reqs, r)
		}
	}
	return t
}

// slot is one position of a block: its kind, and for a batch whether
// it carries a cold cell.
type slot struct {
	kind reqKind
	cold bool
}

// block returns one block's mix in seeded order.
func block(rng *rand.Rand) []slot {
	b := make([]slot, 0, blockLen)
	add := func(n int, s slot) {
		for ; n > 0; n-- {
			b = append(b, s)
		}
	}
	add(coldPerBlock, slot{kind: kindCold})
	add(batchCold, slot{kind: kindBatch, cold: true})
	add(batchPerBlock-batchCold, slot{kind: kindBatch})
	add(artPerBlock, slot{kind: kindArtifact})
	add(blockLen-len(b), slot{kind: kindHot})
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// makeSchedule lays out the requests due in [from, from+window) at the
// offered rate, drawing the order, nodes and cells from the seed.
// firstCold is the index of the next unused cold cell; the returned
// index follows the last one scheduled. The schedule is a pure
// function of its arguments.
func makeSchedule(seed int64, t *cellTable, from, window time.Duration, firstCold int) ([]request, int) {
	rng := rand.New(rand.NewSource(seed ^ int64(from)))
	step := time.Duration(float64(time.Second) / clusterRate)
	next := firstCold
	takeCold := func() int {
		i := next
		next++
		return i
	}
	var out []request
	var mix []slot
	for due := from; due < from+window; due += step {
		if len(mix) == 0 {
			mix = block(rng)
		}
		sl := mix[0]
		mix = mix[1:]
		r := request{Due: due, Node: rng.Intn(clusterNodes), Kind: sl.kind}
		switch sl.kind {
		case kindCold:
			r.Cells = []int{takeCold()}
		case kindBatch:
			for n := batchHotMin + rng.Intn(batchHotExtra); n > 0; n-- {
				r.Cells = append(r.Cells, rng.Intn(t.hot))
			}
			if sl.cold {
				r.Cells = append(r.Cells, takeCold())
			}
		case kindArtifact:
			r.Artifact = artifactNames[rng.Intn(len(artifactNames))]
		default:
			r.Cells = []int{rng.Intn(t.hot)}
		}
		out = append(out, r)
	}
	return out, next
}

// key names a cell as the references do ("workload/scheme"), with the
// geometry appended for cold cells.
func (t *cellTable) key(i int) string {
	r := t.reqs[i]
	k := r.Bench + "/" + r.Scheme
	if !t.isHot(i) {
		k += " l1=" + strconv.Itoa(r.L1Size) + "x" + strconv.Itoa(r.L1Ways)
		if r.NoDis {
			k += " nodis"
		}
	}
	return k
}
