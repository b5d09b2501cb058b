package serve

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errLeaderPanicked is what followers receive when their leader
// panicked before publishing an outcome.
var errLeaderPanicked = errors.New("singleflight leader panicked")

// flightCall is one in-progress execution of a key.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// wait blocks until the call settles and returns its outcome.
func (c *flightCall[V]) wait() (V, error) {
	<-c.done
	return c.val, c.err
}

// flightGroup deduplicates concurrent work by fingerprint: the first
// caller for a key becomes the leader and does the work; every
// concurrent caller for the same key waits for the leader's outcome
// instead of repeating it. The server runs two: one over local
// simulations (do), one over wire fills (begin/finish, where one batch
// RPC settles many keys). The contract:
//
//   - Failures are never cached. A call is forgotten the moment it
//     settles, so the next caller after a failure leads a fresh
//     attempt; successes persist in the ResultCache, not here.
//   - A leader that panics fails its followers with an error; the
//     panic itself stays on the leader's goroutine.
//   - followers counts callers that shared another's call: the work
//     the group saved.
type flightGroup[V any] struct {
	mu        sync.Mutex
	calls     map[string]*flightCall[V]
	followers atomic.Uint64
}

// begin registers interest in key. The first caller leads and must
// call finish exactly once; everyone else waits on the returned call.
func (g *flightGroup[V]) begin(key string) (*flightCall[V], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		g.followers.Add(1)
		return c, false
	}
	if g.calls == nil {
		g.calls = make(map[string]*flightCall[V])
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish publishes the leader's outcome, forgets the key and releases
// the followers.
func (g *flightGroup[V]) finish(key string, c *flightCall[V], val V, err error) {
	c.val, c.err = val, err
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
}

// do runs fn under the key's flight, returning the leader's outcome
// and whether this caller was a follower (shared result).
func (g *flightGroup[V]) do(key string, fn func() (V, error)) (V, error, bool) {
	c, leader := g.begin(key)
	if !leader {
		val, err := c.wait()
		return val, err, true
	}
	settled := false
	defer func() {
		if !settled {
			var zero V
			g.finish(key, c, zero, errLeaderPanicked)
		}
	}()
	val, err := fn()
	settled = true
	g.finish(key, c, val, err)
	return val, err, false
}
