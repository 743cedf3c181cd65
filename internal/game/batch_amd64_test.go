package game

import (
	"testing"
	"unsafe"
)

// TestLanesLayout pins the offsets batch_amd64.s loads lanes' fields from.
func TestLanesLayout(t *testing.T) {
	var l lanes
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"s", unsafe.Offsetof(l.s), 0},
		{"p0", unsafe.Offsetof(l.p0), 512},
		{"p1", unsafe.Offsetof(l.p1), 640},
		{"mask", unsafe.Offsetof(l.mask), 768},
		{"score", unsafe.Offsetof(l.score), 896},
		{"fit", unsafe.Offsetof(l.fit), 1024},
		{"start", unsafe.Offsetof(l.start), 1280},
	} {
		if f.got != f.want {
			t.Errorf("lanes.%s at offset %d, the kernel reads it at %d", f.name, f.got, f.want)
		}
	}
}
