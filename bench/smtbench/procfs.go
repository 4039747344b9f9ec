package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of /proc utime and stime. Linux fixes it
// at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// selfCPU returns the CPU time (user + system) this process has used,
// from getrusage.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parseProcStatCPU extracts utime+stime from the contents of
// /proc/<pid>/stat. The command name is parenthesised and may itself
// contain spaces or parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(data []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command name")
	}
	// After ") " come fields 3.. of proc(5); utime and stime are fields
	// 14 and 15, so indexes 11 and 12 here.
	f := strings.Fields(string(data[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// procCPU reads a process's CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(data)
}

// parseSchedstat returns the on-CPU time, the first field of a
// /proc/<pid>/task/<tid>/schedstat, in nanoseconds.
func parseSchedstat(data []byte) (time.Duration, error) {
	f := strings.Fields(string(data))
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields", len(f))
	}
	ns, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// procThreadsCPU sums the nanosecond on-CPU time of a process's live
// threads. Unlike utime and stime it is exact, which a few milliseconds
// of start-up need.
func procThreadsCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited while being listed
		}
		d, err := parseSchedstat(data)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// parseStatusKB returns the value of a "Key:   1234 kB" line of
// /proc/<pid>/status, in kB.
func parseStatusKB(data []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process
// ("self" for this one) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// resetPeakRSS returns freed memory to the OS and restarts this process's
// VmHWM from its current resident set, so that an in-process workload's
// peak is its own even when an earlier workload ran in the same process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // kernels before 4.0 keep the old peak
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in ticks.
type cpuTimes struct {
	total, idle, steal uint64
}

// parseProcStat reads the aggregate cpu line of /proc/stat: the sum of
// its fields, idle plus iowait (the fourth and fifth), and steal (the
// eighth), the time the hypervisor ran something else while this
// machine's vCPUs were runnable.
func parseProcStat(data []byte) (cpuTimes, error) {
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("proc stat: %w", err)
		}
		switch {
		case i == 3 || i == 4:
			t.idle += v
		case i == 7:
			t.steal = v
		}
		// guest and guest_nice (fields 9, 10) are already counted in user
		// and nice.
		if i < 8 {
			t.total += v
		}
	}
	return t, nil
}

// hostCPU samples /proc/stat; a zero value when it cannot be read.
func hostCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	t, err := parseProcStat(data)
	if err != nil {
		return cpuTimes{}
	}
	return t
}

// stolenShare is the share of the time this machine's vCPUs wanted to run
// between two samples (all time but idle and iowait) that the hypervisor
// stole.
func stolenShare(a, b cpuTimes) float64 {
	busy := (b.total - a.total) - (b.idle - a.idle)
	if b.total <= a.total || busy == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(busy)
}
