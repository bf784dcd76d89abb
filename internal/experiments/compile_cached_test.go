package experiments

import (
	"testing"

	"mlvfpga/internal/artifactstore"
)

// The §4.3 overhead sweep through the artifact store must be cache-bound
// on repeat: zero compiles the second time, and an accounting identical
// to the first run (the measured decompose/partition wall-clock rides in
// the cached artifacts).
func TestCompileOverheadCachedRepeatIsCacheBound(t *testing.T) {
	store := artifactstore.NewMemory(artifactstore.Options{})
	first, err := CompileOverhead(store)
	if err != nil {
		t.Fatal(err)
	}
	computes := store.Stats().Computes
	if computes != int64(first.Instances) {
		t.Fatalf("first sweep: %d compiles for %d instances", computes, first.Instances)
	}
	second, err := CompileOverhead(store)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Computes; got != computes {
		t.Fatalf("repeat sweep compiled: %d computes, want %d", got, computes)
	}
	if *first != *second {
		t.Fatalf("repeat sweep accounting diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}
