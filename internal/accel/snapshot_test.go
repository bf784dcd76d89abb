package accel

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mlvfpga/internal/fp16"
	"mlvfpga/internal/isa"
)

// TestSnapshotSharesNoStorage: a sized stream's registers live in slabs the
// stream owns, so neither side of a snapshot or a restore may alias the
// other. A fresh stream snapshots every register as nil and refuses to
// read one; a restore copies into the stream's own storage, without
// allocating, and mutating the snapshot afterwards leaves the machine's
// registers as restored; a restored nil is unwritten again.
func TestSnapshotSharesNoStorage(t *testing.T) {
	m, p := mvmMachine(t)
	m.SizeStreams(p)
	regs, err := m.SnapshotStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := slices.IndexFunc(regs, func(r []fp16.Num) bool { return r != nil }); len(regs) != m.cfg.VRegs || got >= 0 {
		t.Fatalf("a fresh stream snapshots %d registers, register %d non-nil; want %d, all nil", len(regs), got, m.cfg.VRegs)
	}
	read, _ := isa.Assemble("v_wr r1, 32\nend_chain")
	if err := m.Run(read); err == nil || !strings.Contains(err.Error(), "read before write") {
		t.Fatalf("reading a fresh stream's register: %v, want read before write", err)
	}
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	snap, err := m.SnapshotStream(0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.SnapshotStream(0)
	if err := m.RestoreStream(1, snap); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := m.RestoreStream(1, snap); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("restoring into a sized stream allocates %v times, want 0", n)
	}
	for _, r := range snap {
		for i := range r {
			r[i] = fp16.FromFloat64(-7)
		}
	}
	for s := range 2 {
		if got, _ := m.SnapshotStream(s); !reflect.DeepEqual(got, want) {
			t.Errorf("stream %d changed when the snapshot did: %v, want %v", s, got, want)
		}
	}
	got, _ := m.SnapshotStream(1)
	got[1][0] = fp16.FromFloat64(-7)
	if again, _ := m.SnapshotStream(1); !reflect.DeepEqual(again, want) {
		t.Errorf("stream 1 changed with a snapshot of it: %v, want %v", again, want)
	}
	if err := m.RestoreStream(1, make([][]fp16.Num, m.cfg.VRegs)); err != nil {
		t.Fatal(err)
	}
	if err := m.RunStreams(read, 0, []int{1}, []int{0}); err == nil || !strings.Contains(err.Error(), "read before write") {
		t.Errorf("reading a register restored as nil: %v, want read before write", err)
	}
}
