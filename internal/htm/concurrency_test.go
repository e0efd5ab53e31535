package htm_test

import (
	"fmt"
	"sync"
	"testing"

	"sihtm/internal/htm"
	"sihtm/internal/memsim"
	"sihtm/internal/rng"
	"sihtm/internal/topology"
)

// retryTx keeps attempting body in a fresh transaction until it commits.
func retryTx(th *htm.Thread, mode htm.Mode, body func(tx *htm.Tx)) {
	for {
		if htm.Run(th, mode, body) == nil {
			return
		}
	}
}

// forShardCounts runs test at the default directory size and with a
// single shard. With one shard every live entry shares it, so lookups
// scan many entries and releases swap-remove under contention.
func forShardCounts(t *testing.T, test func(t *testing.T, shards int)) {
	for _, shards := range []int{htm.DefaultShards, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { test(t, shards) })
	}
}

// Concurrent increments through regular HTM transactions must not lose
// updates: tracked reads turn every interleaving into a conflict that
// kills one party.
func TestConcurrentCounterHTM(t *testing.T) { forShardCounts(t, testConcurrentCounterHTM) }

func testConcurrentCounterHTM(t *testing.T, shards int) {
	const threads = 4
	const perThread = 2000
	heap := memsim.NewHeapLines(64)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(threads, 1), Shards: shards})
	x := heap.AllocLine()

	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.Thread(id)
			for i := 0; i < perThread; i++ {
				retryTx(th, htm.ModeHTM, func(tx *htm.Tx) {
					tx.Write(x, tx.Read(x)+1)
				})
			}
		}(id)
	}
	wg.Wait()
	if got := m.Thread(0).Load(x); got != threads*perThread {
		t.Fatalf("counter = %d, want %d", got, threads*perThread)
	}
	checkQuiescent(t, m)
}

// Writers maintain x == y inside one transaction; regular-HTM readers
// must never observe a torn pair — this exercises both conflict tracking
// and the atomicity of multi-line commit write-back.
func TestInvariantPairNeverTorn(t *testing.T) { forShardCounts(t, testInvariantPairNeverTorn) }

func testInvariantPairNeverTorn(t *testing.T, shards int) {
	heap := memsim.NewHeapLines(64)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(4, 1), Shards: shards})
	x := heap.AllocLine()
	y := heap.AllocLine()

	const writers = 2
	const readers = 2
	const iters = 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.Thread(id)
			for i := 0; i < iters; i++ {
				retryTx(th, htm.ModeHTM, func(tx *htm.Tx) {
					v := tx.Read(x)
					tx.Write(x, v+1)
					tx.Write(y, v+1)
				})
			}
		}(w)
	}
	torn := make(chan [2]uint64, 1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.Thread(writers + id)
			for i := 0; i < iters; i++ {
				var a, b uint64
				retryTx(th, htm.ModeHTM, func(tx *htm.Tx) {
					a = tx.Read(x)
					b = tx.Read(y)
				})
				if a != b {
					select {
					case torn <- [2]uint64{a, b}:
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case pair := <-torn:
		t.Fatalf("regular-HTM reader observed torn pair %v", pair)
	default:
	}
	if gx, gy := m.Thread(0).Load(x), m.Thread(0).Load(y); gx != writers*iters || gy != gx {
		t.Fatalf("final (x,y) = (%d,%d), want (%d,%d)", gx, gy, writers*iters, writers*iters)
	}
	checkQuiescent(t, m)
}

// Randomised single-threaded transactions checked against a shadow map:
// committed writes and only committed writes reach memory.
func TestRandomOpsAgainstShadowModel(t *testing.T) {
	forShardCounts(t, testRandomOpsAgainstShadowModel)
}

func testRandomOpsAgainstShadowModel(t *testing.T, shards int) {
	heap := memsim.NewHeapLines(256)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(1, 1), TMCAMLines: 16, Shards: shards})
	base := heap.AllocLines(16)
	th := m.Thread(0)
	r := rng.New(99)
	shadow := make(map[memsim.Addr]uint64)

	for round := 0; round < 2000; round++ {
		mode := htm.ModeHTM
		if r.Bool(50) {
			mode = htm.ModeROT
		}
		pending := make(map[memsim.Addr]uint64)
		wantAbort := r.Bool(30)
		ab := htm.Run(th, mode, func(tx *htm.Tx) {
			nOps := r.IntRange(1, 12)
			for i := 0; i < nOps; i++ {
				a := base + memsim.Addr(r.Intn(16*memsim.WordsPerLine))
				if r.Bool(50) {
					want := shadow[a]
					if v, ok := pending[a]; ok {
						want = v
					}
					if got := tx.Read(a); got != want {
						t.Fatalf("round %d: read %d = %d, want %d", round, a, got, want)
					}
				} else {
					v := r.Uint64()
					tx.Write(a, v)
					pending[a] = v
				}
			}
			if wantAbort {
				tx.AbortExplicit()
			}
		})
		if wantAbort {
			if ab == nil || ab.Code != htm.CodeExplicit {
				t.Fatalf("round %d: abort = %v, want explicit", round, ab)
			}
			continue // pending writes must be discarded
		}
		if ab != nil {
			// Capacity aborts are possible with a 16-line TMCAM; the writes
			// must then be discarded, same as explicit aborts.
			if ab.Code != htm.CodeCapacity {
				t.Fatalf("round %d: unexpected abort %v", round, ab)
			}
			continue
		}
		for a, v := range pending {
			shadow[a] = v
		}
	}
	for a, v := range shadow {
		if got := th.Load(a); got != v {
			t.Fatalf("addr %d = %d, want %d", a, got, v)
		}
	}
	checkQuiescent(t, m)
}

// Hammering one line from many ROTs: exactly one writer survives each
// round and no increment is lost when every transaction re-reads inside
// the claimed line (write set read-back makes ROT increments safe because
// WW conflicts kill late claimants).
func TestROTClaimThenIncrement(t *testing.T) {
	const threads = 4
	const perThread = 1500
	heap := memsim.NewHeapLines(64)
	m := htm.NewMachine(heap, htm.Config{Topology: topology.New(threads, 1)})
	x := heap.AllocLine()

	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := m.Thread(id)
			for i := 0; i < perThread; i++ {
				retryTx(th, htm.ModeROT, func(tx *htm.Tx) {
					// Claim the line first with a dummy write, then read:
					// the read returns the committed value only if we hold
					// the line exclusively, so the increment is atomic.
					tx.Write(x+1, 1) // claim a word on the same line
					v := tx.Read(x)
					tx.Write(x, v+1)
				})
			}
		}(id)
	}
	wg.Wait()
	if got := m.Thread(0).Load(x); got != threads*perThread {
		t.Fatalf("counter = %d, want %d", got, threads*perThread)
	}
	checkQuiescent(t, m)
}
