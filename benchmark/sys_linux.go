package main

import "syscall"

// maxRSSMB reads a peak resident set size; Linux reports it in KB.
func maxRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// selfPeakRSSMB is the benchmark process's own peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return maxRSSMB(&ru)
}

// cpuSeconds is the user + system CPU time the benchmark process has
// used; subprocesses still running are not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
