package core

import (
	"bytes"
	"testing"

	"mlvfpga/internal/artifactstore"
)

func testOpts() Options {
	return Options{Tiles: 2, PartitionIterations: 2, Seed: 1, PatternAware: true}
}

func TestCompileKeyCanonical(t *testing.T) {
	base := testOpts()
	if CompileKey(base) != CompileKey(base) {
		t.Fatal("key not stable for identical options")
	}
	// Every result-determining field must move the key.
	for name, mut := range map[string]func(*Options){
		"tiles":      func(o *Options) { o.Tiles = 3 },
		"iterations": func(o *Options) { o.PartitionIterations = 3 },
		"seed":       func(o *Options) { o.Seed = 2 },
		"pattern":    func(o *Options) { o.PatternAware = false },
	} {
		o := testOpts()
		mut(&o)
		if CompileKey(o) == CompileKey(base) {
			t.Errorf("key ignores %s", name)
		}
	}
}

// TestCompiledCodecRoundTrip is the bit-identity golden test for the blob
// format: decode(encode(cold)) must fingerprint identically to the cold
// compile, and the decoded images must point into the decoded partition
// tree (the identity the frontier and ladder walks rely on).
func TestCompiledCodecRoundTrip(t *testing.T) {
	cold, err := CompileAccelerator(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := CompiledCodec.Encode(cold)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CompiledCodec.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	warm := v.(*Compiled)
	if got, want := compiledFingerprint(t, warm), compiledFingerprint(t, cold); got != want {
		t.Fatal("decoded artifact is not bit-identical to the cold compile")
	}
	if warm.Opts != cold.Opts {
		t.Fatalf("opts %+v, want %+v", warm.Opts, cold.Opts)
	}
	inTree := map[any]bool{}
	for _, n := range warm.Partition.AllPieces() {
		inTree[n] = true
	}
	for dev, images := range warm.Images {
		for _, pi := range images {
			if !inTree[pi.Piece] {
				t.Fatalf("%s image %q detached from decoded partition tree", dev, pi.Image.PieceID)
			}
		}
	}
}

// TestOldBlobStillDecodes: blobs written while Options still carried a
// Parallelism field (which the key never covered) keep their key and
// decode to the same artifact, so an existing cache directory stays warm.
func TestOldBlobStillDecodes(t *testing.T) {
	if key := CompileKey(testOpts()); key != "compiled-facefb790976b1e0" {
		t.Fatalf("key = %s: the compiled keyspace moved under the %s salt", key, compiledSalt)
	}
	cold, err := CompileAccelerator(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := CompiledCodec.Encode(cold)
	if err != nil {
		t.Fatal(err)
	}
	const opts = `"PatternAware":true}`
	if !bytes.Contains(blob, []byte(opts)) {
		t.Fatalf("blob opts do not end in %s", opts)
	}
	old := bytes.Replace(blob, []byte(opts), []byte(`"PatternAware":true,"Parallelism":1}`), 1)
	v, err := CompiledCodec.Decode(old)
	if err != nil {
		t.Fatal(err)
	}
	if warm := v.(*Compiled); warm.Opts != cold.Opts || compiledFingerprint(t, warm) != compiledFingerprint(t, cold) {
		t.Fatal("a blob with the old Parallelism key decodes to a different artifact")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for name, payload := range map[string][]byte{
		"notjson": []byte("not json"),
		"empty":   []byte("{}"),
		"badidx":  []byte(`{"accelerator":{"name":"x","control":{"id":"c","kind":"leaf","module_key":"m","resources":{},"in_bits":0,"out_bits":0},"data":{"id":"d","kind":"leaf","module_key":"m","resources":{},"in_bits":0,"out_bits":0}},"partition":{"Root":{"Block":{"id":"d","kind":"leaf","module_key":"m","resources":{},"in_bits":0,"out_bits":0},"CutBits":0,"CutKind":"leaf"},"Iterations":0},"images":{"dev":[{"piece":9,"image":{},"lanes":1}]}}`),
	} {
		if _, err := CompiledCodec.Decode(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestCompileAcceleratorCached(t *testing.T) {
	dir := t.TempDir()
	store, err := artifactstore.Open(dir, artifactstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	key := CompileKey(opts)
	cold, warm, err := CompileAcceleratorCached(opts, key, store)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("cold-cache compile reported warm")
	}
	hit, warm2, err := CompileAcceleratorCached(opts, key, store)
	if err != nil {
		t.Fatal(err)
	}
	if !warm2 {
		t.Fatal("second compile missed the cache")
	}
	if hit != cold {
		t.Fatal("memory hit did not return the shared artifact")
	}
	if st := store.Stats(); st.Computes != 1 {
		t.Fatalf("stats = %+v, want exactly one compile", st)
	}

	// A fresh store over the same directory must serve the blob without
	// recompiling, bit-identical to the cold artifact.
	reopened, err := artifactstore.Open(dir, artifactstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	disk, warm3, err := CompileAcceleratorCached(opts, key, reopened)
	if err != nil {
		t.Fatal(err)
	}
	if !warm3 {
		t.Fatal("reopened store recompiled")
	}
	if got, want := compiledFingerprint(t, disk), compiledFingerprint(t, cold); got != want {
		t.Fatal("disk-loaded artifact is not bit-identical to the cold compile")
	}
	if st := reopened.Stats(); st.Computes != 0 || st.DiskHits != 1 {
		t.Fatalf("reopened stats = %+v", st)
	}
}

func TestInstanceCatalogCachedRepeatSweepIsCacheBound(t *testing.T) {
	store := artifactstore.NewMemory(artifactstore.Options{})
	tiles := []int{1, 2, 3}
	first, err := InstanceCatalog(tiles, 2, 1, store)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Computes != int64(len(tiles)) {
		t.Fatalf("first sweep stats = %+v", st)
	}
	second, err := InstanceCatalog(tiles, 2, 1, store)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Computes != int64(len(tiles)) {
		t.Fatalf("repeat sweep compiled: stats = %+v", st)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("instance %d not shared on repeat sweep", i)
		}
	}
}

// FuzzDecodeBlob feeds the artifact decoder damaged blobs, such as a file
// planted in the cache directory: it must return an error, never panic,
// and an artifact it accepts must re-encode to bytes that decode and
// re-encode identically.
func FuzzDecodeBlob(f *testing.F) {
	cold, err := CompileAccelerator(testOpts())
	if err != nil {
		f.Fatal(err)
	}
	blob, err := CompiledCodec.Encode(cold)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := CompiledCodec.Decode(data)
		if err != nil {
			return
		}
		once, err := CompiledCodec.Encode(v)
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		v, err = CompiledCodec.Decode(once)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		twice, err := CompiledCodec.Encode(v)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
