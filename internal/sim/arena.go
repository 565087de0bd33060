package sim

import (
	"sync"

	"basevictim/internal/arena"
)

// arenaPool recycles per-run arenas: a run's cache tag arrays, ROB and
// prefetcher state are carved from one arena and returned here when
// the run ends, so repeated runs (sweeps, pairs, parallel sessions)
// stop exercising the heap for their largest allocations.
var arenaPool = sync.Pool{New: func() any { return arena.New() }}

// getArena takes an empty arena from the pool.
func getArena() *arena.Arena { return arenaPool.Get().(*arena.Arena) }

// putArena resets the arena and returns it to the pool. Callers must
// not retain anything allocated from it; results that outlive the run
// are copied by value before this point.
func putArena(a *arena.Arena) {
	a.Reset()
	arenaPool.Put(a)
}
