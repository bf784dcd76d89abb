package netmodel

import (
	"testing"
	"time"
)

func TestLinkTransferTime(t *testing.T) {
	l := Link{Latency: 100 * time.Nanosecond, BandwidthGBs: 1}
	got, err := l.TransferTime(1000) // 1000 B at 1 GB/s = 1 us
	if err != nil {
		t.Fatal(err)
	}
	want := 100*time.Nanosecond + time.Microsecond
	if got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
}

func TestLinkAddedLatency(t *testing.T) {
	l := Link{Latency: 100 * time.Nanosecond, BandwidthGBs: 1, AddedLatency: 600 * time.Nanosecond}
	got, _ := l.TransferTime(0)
	if got != 700*time.Nanosecond {
		t.Errorf("added latency not charged: %v", got)
	}
}

func TestLinkErrors(t *testing.T) {
	if _, err := (Link{BandwidthGBs: 0}).TransferTime(1); err == nil {
		t.Error("zero bandwidth must error")
	}
	if _, err := (Link{BandwidthGBs: 1}).TransferTime(-1); err == nil {
		t.Error("negative size must error")
	}
}
