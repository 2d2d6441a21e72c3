package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFacts describe the machine a run measured on, so that a noisy set
// of runs can be told apart from a slow change.
type hostFacts struct {
	NProc       int     `json:"nproc"` // CPUs of the machine, not only those allowed
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPUs        string  `json:"cpus_allowed"`
	GoVersion   string  `json:"go_version"`
	LoadAvg     string  `json:"loadavg"`
	StealBefore int64   `json:"steal_ticks_before"`
	StealAfter  int64   `json:"steal_ticks_after"`
	StealPct    float64 `json:"steal_pct"` // steal share of all CPU ticks during the run
	// CalibMS times a fixed CPU-bound loop that shares no code with the
	// program, at the start and the end of the run: when it moves with
	// the metrics, the host changed speed, not the code.
	CalibMSBefore float64 `json:"calib_ms_before"`
	CalibMSAfter  float64 `json:"calib_ms_after"`
	totalBefore   int64
}

func startHostFacts() *hostFacts {
	la, _ := os.ReadFile("/proc/loadavg")
	h := &hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       procStatus("self", "Cpus_allowed_list:"),
		GoVersion:  runtime.Version(),
		LoadAvg:    strings.TrimSpace(string(la)),
	}
	h.StealBefore, h.totalBefore, h.NProc = cpuTicks()
	h.CalibMSBefore = calibrate()
	return h
}

func (h *hostFacts) finish() {
	h.CalibMSAfter = calibrate()
	var total int64
	h.StealAfter, total, _ = cpuTicks()
	if d := total - h.totalBefore; d > 0 {
		h.StealPct = 100 * float64(h.StealAfter-h.StealBefore) / float64(d)
	}
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate returns the median time, in ms, of five runs of a fixed
// loop of integer hashing and dependent table loads (about 20 ms each).
func calibrate() float64 {
	table := make([]uint64, 1<<15) // 256 KiB: L2-resident
	for i := range table {
		table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	samples := make([]float64, 5)
	for s := range samples {
		start := time.Now()
		x := uint64(s)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x += table[x&(1<<15-1)]
		}
		calibSink += x
		samples[s] = ms(time.Since(start))
	}
	return median(samples)
}

// cpuTicks reads the aggregate steal and total ticks from the first
// line of /proc/stat and counts its per-CPU lines (zeros where it is
// unavailable).
func cpuTicks() (steal, total int64, cpus int) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	lines := strings.Split(string(raw), "\n")
	for _, l := range lines[1:] {
		if len(l) > 3 && strings.HasPrefix(l, "cpu") && l[3] >= '0' && l[3] <= '9' {
			cpus++
		}
	}
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, cpus
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, cpus
}

// cpuTime is this process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procCPU is the user+sys CPU time of another live process, read from
// /proc/<pid>/stat (clock ticks of 1/100 s).
func procCPU(pid int) time.Duration {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// procPeakRSSMB is another live process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procStatus(strconv.Itoa(pid), "VmHWM:"), " kB"), 64)
	return kb / 1024
}

// procStatus returns the value of one field of /proc/<pid>/status.
func procStatus(pid, field string) string {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}
