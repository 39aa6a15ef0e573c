package tensor

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// forEachKernel runs f once per row kernel the host can select: AVX2 when
// init chose it, then the portable loop with useAVX2 off.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	if useAVX2 {
		t.Run("avx2", f)
		useAVX2 = false
		defer func() { useAVX2 = true }()
	}
	t.Run("portable", f)
}

// The CPUID probe against the kernel's own account of the CPU: AVX2 is
// selected iff /proc/cpuinfo lists the avx2 flag, which Linux shows only
// when the OS also saves the YMM state. A detection bug would otherwise pass
// every bit test on the portable path and quietly lose the vector kernel.
func TestKernelSelection(t *testing.T) {
	if useAVX2 {
		t.Log("row kernel: avx2")
	} else {
		t.Log("row kernel: portable")
	}
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx2"); useAVX2 != want {
			t.Fatalf("useAVX2 = %v, but /proc/cpuinfo lists avx2: %v", useAVX2, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
