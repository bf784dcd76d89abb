package artifactstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlvfpga/internal/frame"
)

// jsonCodec round-trips a map payload; enough to exercise the store
// without dragging the compiler in.
type jsonCodec struct{}

func (jsonCodec) Encode(v any) ([]byte, error) { return json.Marshal(v) }

func (jsonCodec) Decode(data []byte) (any, error) {
	var m map[string]int
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return m, nil
}

func value(n int) map[string]int { return map[string]int{"n": n} }

func mustGet(t *testing.T, s *Store, key Key, n int) (any, bool) {
	t.Helper()
	v, hit, err := s.GetOrCompute(key, jsonCodec{}, func() (any, error) { return value(n), nil })
	if err != nil {
		t.Fatalf("GetOrCompute(%s): %v", key, err)
	}
	return v, hit
}

func TestBlobRoundTrip(t *testing.T) {
	payload := []byte("the artifact payload")
	path := filepath.Join(t.TempDir(), "a"+blobExt)
	if err := writeBlob(path, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readBlob(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

// TestBlobRejectsDamage: every way internal/frame refuses a blob reaches
// the store's callers as ErrCorrupt, with the frame's reason still attached.
func TestBlobRejectsDamage(t *testing.T) {
	buf := frame.Seal(blobMagic, []byte("some bytes worth caching"))
	flipped := append([]byte{}, buf...)
	flipped[frame.Overhead+2] ^= 0x40
	cases := map[string]struct {
		blob []byte
		why  error
	}{
		"empty":     {nil, frame.ErrTruncated},
		"truncated": {buf[:len(buf)-3], frame.ErrLength},
		"short":     {buf[:frame.Overhead-1], frame.ErrTruncated},
		"badmagic":  {append([]byte("XXVART01"), buf[8:]...), frame.ErrBadMagic},
		"bitflip":   {flipped, frame.ErrChecksum},
	}
	for name, c := range cases {
		path := filepath.Join(t.TempDir(), "a"+blobExt)
		if err := os.WriteFile(path, c.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readBlob(path); !errors.Is(err, ErrCorrupt) || !errors.Is(err, c.why) {
			t.Errorf("%s: err = %v, want ErrCorrupt wrapping %v", name, err, c.why)
		}
	}
}

func TestMemoryHitAndSingleCompute(t *testing.T) {
	s := NewMemory(Options{})
	v, hit := mustGet(t, s, "k1", 7)
	if hit {
		t.Fatal("first lookup was a hit")
	}
	if v.(map[string]int)["n"] != 7 {
		t.Fatalf("value = %v", v)
	}
	v2, hit2 := mustGet(t, s, "k1", 999) // compute must not run again
	if !hit2 || v2.(map[string]int)["n"] != 7 {
		t.Fatalf("second lookup hit=%v v=%v", hit2, v2)
	}
	st := s.Stats()
	if st.Computes != 1 || st.Hits != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustGet(t, s1, "persisted", 42)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, hit := mustGet(t, s2, "persisted", 0)
	if !hit {
		t.Fatal("reopened store recomputed instead of reading the blob")
	}
	if v.(map[string]int)["n"] != 42 {
		t.Fatalf("value = %v", v)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Computes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorruptBlobFallsBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustGet(t, s1, "damaged", 5)
	path := filepath.Join(dir, "damaged"+blobExt)

	for name, damage := range map[string]func([]byte) []byte{
		"truncate": func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip": func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(buf), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			v, hit := mustGet(t, s, "damaged", 5)
			if hit {
				t.Fatal("damaged blob served as a hit")
			}
			if v.(map[string]int)["n"] != 5 {
				t.Fatalf("value = %v", v)
			}
			st := s.Stats()
			if st.CorruptDropped != 1 || st.Computes != 1 {
				t.Fatalf("stats = %+v", st)
			}
			// The bad entry must have been replaced with a valid blob.
			if _, err := readBlob(path); err != nil {
				t.Fatalf("rewritten blob unreadable: %v", err)
			}
		})
	}
}

func TestUndecodablePayloadIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A well-framed blob whose payload the codec rejects: valid checksum,
	// garbage JSON.
	path := filepath.Join(dir, "k"+blobExt)
	if err := writeBlob(path, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	_, hit := mustGet(t, s, "k", 3)
	if hit {
		t.Fatal("undecodable payload served as a hit")
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	s := NewMemory(Options{})
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := s.GetOrCompute("shared", jsonCodec{}, func() (any, error) {
				computes.Add(1)
				<-release
				return value(11), nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = v
		}(i)
	}
	// The leader holds the flight until released, so every other caller
	// joins it; release the leader once all 31 have.
	for s.Stats().SingleflightWaits < int64(len(results)-1) {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if n := s.Stats().SingleflightWaits; n != int64(len(results)-1) {
		t.Fatalf("%d callers joined the flight, want %d", n, len(results)-1)
	}
	for i, v := range results {
		if v == nil || v.(map[string]int)["n"] != 11 {
			t.Fatalf("goroutine %d got %v", i, v)
		}
	}
	if st := s.Stats(); st.Computes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestComputeErrorPropagatesAndRetries(t *testing.T) {
	s := NewMemory(Options{})
	boom := errors.New("boom")
	_, _, err := s.GetOrCompute("k", jsonCodec{}, func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// A failed compute caches nothing; the next call retries.
	v, hit := mustGet(t, s, "k", 8)
	if hit || v.(map[string]int)["n"] != 8 {
		t.Fatalf("retry hit=%v v=%v", hit, v)
	}
}

// TestPanicReleasesKey: a compute that panics must not leave its flight
// behind, or every later call for the key blocks forever.
func TestPanicReleasesKey(t *testing.T) {
	s := NewMemory(Options{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("compute's panic did not reach the caller")
			}
		}()
		s.GetOrCompute("k", jsonCodec{}, func() (any, error) { panic("compute bug") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, hit := mustGet(t, s, "k", 5); hit || v.(map[string]int)["n"] != 5 {
			t.Errorf("after the panic: hit=%v v=%v", hit, v)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("GetOrCompute still blocked on the panicked flight")
	}
}

func TestMemLRUEviction(t *testing.T) {
	s := NewMemory(Options{})
	key := func(i int) Key { return Key(fmt.Sprintf("k%d", i)) }
	for i := 0; i < maxMemEntries; i++ {
		mustGet(t, s, key(i), i)
	}
	mustGet(t, s, key(0), 0)                         // touch k0 so k1 is the LRU victim
	mustGet(t, s, key(maxMemEntries), maxMemEntries) // one past the bound: evicts k1
	if _, hit := mustGet(t, s, key(0), 0); !hit {
		t.Fatal("recently used entry evicted")
	}
	if _, hit := mustGet(t, s, key(1), 1); hit {
		t.Fatal("evicted entry still hit")
	}
	if st := s.Stats(); st.MemEvictions < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyValidation(t *testing.T) {
	s := NewMemory(Options{})
	for _, bad := range []Key{"", "UPPER", "has space", "dot/dot", "../escape"} {
		if _, _, err := s.GetOrCompute(bad, jsonCodec{}, func() (any, error) { return value(0), nil }); err == nil {
			t.Errorf("key %q accepted", bad)
		}
	}
}
