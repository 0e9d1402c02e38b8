package netsim

import (
	"runtime"
	"sync"
)

// Tile-parallel topology update. Tiles are contiguous node-ID ranges:
// each worker patches, filters or fills only its own rows, so all writes
// (per-tile arenas and event lists, deg/rowStart entries, flat CSR
// segments) are disjoint by construction, and the serial prefix-sums
// before the patch and between filter and fill are the only cross-tile
// synchronization points. Because row contents are canonical (sorted
// ascending), tile boundaries depend only on N and the tile count, and
// tile event lists concatenate in node order, the assembled adjacency
// and every event are byte-identical for any worker count.
//
// Workers live in one process-wide pool shared by all Sims (a Sim has
// no Close hook, so per-Sim goroutines would leak). Jobs are plain
// structs passed by value over a buffered channel: dispatching a tick's
// tiles allocates nothing. The dispatching goroutine always executes
// tile 0 itself, so a tick makes progress even if every pool worker is
// busy with other simulations, and workers never block on anything but
// the channel receive — no job depends on another job, so the pool
// cannot deadlock.

const (
	phasePatch uint8 = iota
	phaseFilter
	phaseFill
)

type tileJob struct {
	s     *Sim
	phase uint8
	tile  int
	wg    *sync.WaitGroup
}

var (
	tilePoolOnce sync.Once
	tileJobs     chan tileJob
)

func ensureTilePool() {
	tilePoolOnce.Do(func() {
		w := runtime.GOMAXPROCS(0)
		tileJobs = make(chan tileJob, 4*w)
		for k := 0; k < w; k++ {
			go func() {
				for job := range tileJobs {
					job.s.runTile(job.phase, job.tile)
					job.wg.Done()
				}
			}()
		}
	})
}

// runTiled executes one rebuild phase across all tiles, farming tiles
// 1..tiles-1 out to the shared pool and running tile 0 inline. The
// WaitGroup lives on the Sim so dispatch stays allocation-free.
func (s *Sim) runTiled(phase uint8) {
	ensureTilePool()
	s.tileWG.Add(s.tiles - 1)
	for t := 1; t < s.tiles; t++ {
		tileJobs <- tileJob{s: s, phase: phase, tile: t, wg: &s.tileWG}
	}
	s.runTile(phase, 0)
	s.tileWG.Wait()
}

// runTile executes one phase over tile t's node-ID range. The range
// split is the standard balanced partition n·t/w — purely a function
// of (n, tiles, t), never of scheduling.
func (s *Sim) runTile(phase uint8, t int) {
	n := s.cfg.N
	lo := n * t / s.tiles
	hi := n * (t + 1) / s.tiles
	switch phase {
	case phasePatch:
		s.patchRange(lo, hi)
	case phaseFilter:
		s.filterRange(t, lo, hi)
	default:
		s.fillRange(t, lo, hi)
	}
}
