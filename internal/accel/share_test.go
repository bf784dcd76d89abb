package accel

import (
	"reflect"
	"sync"
	"testing"
)

// TestSharedTileHazard: two machines bind one tile set (ShareTiles) and read
// it concurrently. A host write into one side's weight range invalidates
// that side only, and its re-read lands in fresh storage: the other side
// keeps the very same tile, its packed words unchanged, and its outputs stay
// bit-identical to a machine that never shared. The write lands first on
// the binding side, then on the source side.
func TestSharedTileHazard(t *testing.T) {
	for _, onSource := range []bool{false, true} {
		src, p := mvmMachine(t)
		if err := src.Run(p); err != nil {
			t.Fatal(err)
		}
		bound, _ := mvmMachine(t)
		bound.ShareTiles(src)
		if bound.mrf[0] != src.mrf[0] || !src.tiles[0].shared || !bound.tiles[0].shared {
			t.Fatal("ShareTiles must bind the tile on both sides and mark it shared")
		}
		if err := bound.Run(p); err != nil {
			t.Fatal(err)
		}
		if st := bound.Stats(); st.TileCacheMisses != 0 || st.TileCacheHits != 1 {
			t.Fatalf("bound m_rd: misses=%d hits=%d, want 0/1", st.TileCacheMisses, st.TileCacheHits)
		}
		solo, _ := mvmMachine(t)
		if err := solo.Run(p); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, m := range []*Machine{src, bound} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 50 {
					if err := m.Run(p); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()

		w, keep := bound, src
		if onSource {
			w, keep = src, bound
		}
		tile := keep.mrf[0]
		writeVec(t, w, 5, []float64{3}) // matrix[1][1]: 1 -> 3
		if w.tiles[0].valid || !keep.tiles[0].valid {
			t.Fatalf("onSource=%v: the write must invalidate the writer's tile only", onSource)
		}
		for _, m := range []*Machine{w, keep} {
			if err := m.Run(p); err != nil {
				t.Fatal(err)
			}
		}
		if w.mrf[0] == tile || keep.mrf[0] != tile {
			t.Errorf("onSource=%v: the writer must refill into fresh storage and the other side keep its tile", onSource)
		}
		if !reflect.DeepEqual(keep.mrf[0], solo.mrf[0]) {
			t.Errorf("onSource=%v: the kept tile's packed words changed", onSource)
		}
		want, _ := solo.readVectorStream(0, 2)
		if got, _ := keep.readVectorStream(0, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("onSource=%v: kept side r2 = %v, never-shared machine %v", onSource, got, want)
		}
		if got, want := readVecReg(t, w, 2), []float64{2, 6, 3, -4}; !reflect.DeepEqual(got, want) {
			t.Errorf("onSource=%v: writer r2 = %v, want %v from its new weight", onSource, got, want)
		}
	}
}
