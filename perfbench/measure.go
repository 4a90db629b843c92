package main

import (
	"bufio"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostCPU is the aggregate "cpu" line of /proc/stat: all jiffies and
// the stolen ones. ok is false where the file does not exist.
type hostCPU struct {
	total, steal uint64
	ok           bool
}

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted
		// in user and nice.
		if i < 8 {
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// stealPct is the share of host CPU time stolen by the hypervisor
// between two samples, in percent; -1 when /proc/stat is unreadable.
func stealPct(a, b hostCPU) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// diskFreeMiB is the space an unprivileged process may still write on
// the file system holding dir, in MiB; -1 when unknown.
func diskFreeMiB(dir string) float64 {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return -1
	}
	return float64(st.Bavail) * float64(st.Bsize) / mib
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime counters the benchmark reports.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, busyCPU       float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return runtimeSample{
		allocBytes: u(0), gcCycles: u(1),
		gcCPU: f(2), busyCPU: f(3) - f(4),
	}
}

// heapPeak samples the post-GC live heap every tick until stop is
// closed, then sends the largest value seen. The runtime updates it once
// per GC cycle, and matrix-warm runs a cycle every ~13 ms, so the tick
// is shorter than that. sample, when set, runs every fourth tick.
func heapPeak(stop <-chan struct{}, every time.Duration, sample func()) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		t := time.NewTicker(every)
		defer t.Stop()
		for tick := 0; ; tick++ {
			metrics.Read(live)
			if live[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, live[0].Value.Uint64())
			}
			if sample != nil && tick%4 == 0 {
				sample()
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// quantile is the nearest-rank p-quantile (0 < p <= 1) of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
