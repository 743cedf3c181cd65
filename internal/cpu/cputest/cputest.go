// Package cputest holds the tests of an assembly kernel to the CPU they
// run on: a test that compares a kernel with its Go path cannot pass on a
// CPU with the extension without running the kernel.
package cputest

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// EachKernel runs f with *sw false, then, where the CPU has the extension
// (has, from cpu.Probe), with *sw true, and sets *sw back to has after. It
// first fails t on amd64 when /proc/cpuinfo lists every one of flags but
// has is false, or when has is true but *sw is not, so that the package
// would run its Go path where the kernel could run. It logs each kernel
// it runs as name's "go" or "kernel" path.
func EachKernel(t testing.TB, name string, sw *bool, has bool, flags []string, f func(kernel bool)) {
	t.Helper()
	if runtime.GOARCH == "amd64" {
		if !has && listed(flags) {
			t.Fatalf("/proc/cpuinfo lists %s, but cpu.Probe does not see them", strings.Join(flags, " and "))
		}
		if has && !*sw {
			t.Fatalf("the CPU has %s, but %s runs its Go path", strings.Join(flags, " and "), name)
		}
	}
	defer func() { *sw = has }()
	for _, on := range []bool{false, true} {
		if on && !has {
			continue
		}
		*sw = on
		path := "go"
		if on {
			path = "kernel"
		}
		t.Logf("%s: the %s path (%s, %s %v)", name, path, runtime.GOARCH, strings.Join(flags, "+"), has)
		f(on)
	}
}

// listed reports whether /proc/cpuinfo's flags line lists every one of
// flags; false where the file cannot be read.
func listed(flags []string) bool {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, have, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			have := strings.Fields(have)
			return !slices.ContainsFunc(flags, func(f string) bool { return !slices.Contains(have, f) })
		}
	}
	return false
}
