package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is the process- and host-level state sampled around the
// measured phase.
type procSnap struct {
	cpu        time.Duration // user + system time of this process
	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64
	heapBytes  uint64
	hostTotal  uint64 // /proc/stat cpu line, all fields, in ticks
	hostSteal  uint64
}

// processCPU is this process's user + system time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeProcSnap() procSnap {
	s := procSnap{cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.gcPauseNS, s.heapBytes = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.HeapAlloc
	s.hostTotal, s.hostSteal = hostCPU()
	return s
}

// hostCPU reads the aggregate cpu line of /proc/stat: total ticks and
// the steal field (ticks this guest wanted to run and the host gave to
// someone else). Zeroes where /proc is not there.
func hostCPU() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// statusMiB reads one kB-valued field of /proc/self/status.
func statusMiB(field string) (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
				return kb / 1024, true
			}
		}
	}
	return 0, false
}

// currentRSSMiB is the resident set right now (VmRSS).
func currentRSSMiB() float64 {
	if v, ok := statusMiB("VmRSS"); ok {
		return v
	}
	return peakRSSMiB()
}

// peakRSSMiB is the process's high-water resident set (VmHWM), falling
// back to getrusage's maxrss where /proc is not there.
func peakRSSMiB() float64 {
	if v, ok := statusMiB("VmHWM"); ok {
		return v
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// resetPeakRSS restarts the VmHWM high-water mark, so rss_mb is the
// peak of the build that is kept and measured rather than of the
// discarded cold builds' garbage. Where the kernel refuses, the peak
// simply covers the whole process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // best effort, see above
}
