package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is CLOCK_PROCESS_CPUTIME_ID: user+sys time of every
// thread of the calling process, at nanosecond resolution.
const clockProcessCPU = 2

// clockGettime reads a POSIX clock through the raw syscall, so the
// benchmark needs no cgo.
func clockGettime(clk int64) (time.Duration, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clk), uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// selfCPU is the CPU time this process has used so far.
func selfCPU() time.Duration {
	d, err := clockGettime(clockProcessCPU)
	if err != nil {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", err))
	}
	return d
}

// childCPU is the CPU time process pid has used so far: the kernel's
// per-process CPU clock, addressed as clock_getcpuclockid(3) does
// (CPUCLOCK_SCHED of the whole thread group).
func childCPU(pid int) (time.Duration, error) {
	return clockGettime(int64(^pid)<<3 | 2)
}

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() (cpuStat, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var st cpuStat
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("/proc/stat: %w", err)
			}
			// user nice system idle iowait irq softirq steal [guest
			// guest_nice]: guest time is already counted in user.
			if i < 8 {
				st.total += v
			}
			if i == 7 {
				st.steal = v
			}
		}
		return st, nil
	}
	return cpuStat{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// hostInfo describes the machine a run measured on, so a noisy run can
// be explained from its own output.
type hostInfo struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"`
}

// hostMeter samples /proc/stat at the start and end of a run. The
// steal share is the part of all CPU ticks in between that the
// hypervisor gave to other guests; -1 when /proc/stat is unreadable.
type hostMeter struct {
	start cpuStat
	ok    bool
}

func startHostMeter() *hostMeter {
	st, err := readCPUStat()
	return &hostMeter{start: st, ok: err == nil}
}

func (m *hostMeter) info() hostInfo {
	h := hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), StealShare: -1}
	end, err := readCPUStat()
	if m.ok && err == nil && end.total > m.start.total {
		h.StealShare = float64(end.steal-m.start.steal) / float64(end.total-m.start.total)
	}
	return h
}

// clockReadCost is the mean cost of one selfCPU call in ns: the traced
// run reads the clock twice per layer call.
func clockReadCost() float64 {
	const n = 10000
	c := selfCPU()
	for i := 0; i < n; i++ {
		selfCPU()
	}
	return float64(selfCPU()-c) / n
}
