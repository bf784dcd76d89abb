package accel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mlvfpga/internal/fp16"
)

// TestSharedTileHazard: two machines bind one tile set (Tiles, BindTiles)
// and read it concurrently. A host write into one side's weight range
// invalidates that side only, and its re-read lands in fresh storage: the
// other side keeps the very same tile, its packed words unchanged, and its
// outputs stay bit-identical to a machine that never shared. The write
// lands first on the binding side, then on the source side. Then the same
// across engines: two machines bind a set whose loader is gone.
func TestSharedTileHazard(t *testing.T) {
	for _, onSource := range []bool{false, true} {
		src, p := mvmMachine(t)
		if err := src.Run(p); err != nil {
			t.Fatal(err)
		}
		bound, _ := mvmMachine(t)
		bound.BindTiles(src.Tiles())
		if bound.mregs[0].mat != src.mregs[0].mat || !src.mregs[0].shared || !bound.mregs[0].shared {
			t.Fatal("binding must share the tile on both sides and mark it shared")
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
		tile := keep.mregs[0].mat
		writeVec(t, w, 5, []float64{3}) // matrix[1][1]: 1 -> 3
		if w.mregs[0].valid || !keep.mregs[0].valid {
			t.Fatalf("onSource=%v: the write must invalidate the writer's tile only", onSource)
		}
		for _, m := range []*Machine{w, keep} {
			if err := m.Run(p); err != nil {
				t.Fatal(err)
			}
		}
		if w.mregs[0].mat == tile || keep.mregs[0].mat != tile {
			t.Errorf("onSource=%v: the writer must refill into fresh storage and the other side keep its tile", onSource)
		}
		if !reflect.DeepEqual(keep.mregs[0].mat, solo.mregs[0].mat) {
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

	// Across engines: one set, held apart from any machine that runs, bound
	// by two, as every engine of a weight set binds it. One machine steps on
	// another goroutine while the other has the shared tile invalidated and
	// refilled under it, each time with a new weight; the stepped machine's
	// outputs stay those of a machine that never shared, during and after.
	t.Run("engines", func(t *testing.T) {
		loader, p := mvmMachine(t)
		if err := loader.Run(p); err != nil {
			t.Fatal(err)
		}
		ts := loader.Tiles()
		stepped, _ := mvmMachine(t)
		refilled, _ := mvmMachine(t)
		stepped.BindTiles(ts)
		refilled.BindTiles(ts)
		solo, _ := mvmMachine(t)
		if err := solo.Run(p); err != nil {
			t.Fatal(err)
		}
		want := readVecReg(t, solo, 2)
		check := func() error {
			if err := stepped.Run(p); err != nil {
				return err
			}
			r2, err := stepped.readVectorStream(0, 2)
			if err != nil {
				return err
			}
			got := make([]float64, len(r2))
			fp16.ToSlice64Into(got, r2)
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("stepped engine's outputs changed: r2 = %v, never-shared machine %v", got, want)
			}
			return nil
		}
		errs := make(chan error, 1)
		go func() {
			for range 200 {
				if err := check(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		for i := range 50 {
			writeVec(t, refilled, 5, []float64{float64(3 + i%2)}) // matrix[1][1]: a new weight each time
			if err := refilled.Run(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if err := check(); err != nil {
			t.Fatal(err)
		}
		if st := stepped.Stats(); st.TileCacheMisses != 0 {
			t.Errorf("stepped engine quantized %d tiles, want 0: it binds the set", st.TileCacheMisses)
		}
	})
}
