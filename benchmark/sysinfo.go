package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint names the machine and build a set of numbers came from;
// numbers from different fingerprints are not comparable.
type fingerprint struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
}

func readFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		_ = f.Close() // read-only
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// header writes the run header every output starts with.
func (fp fingerprint) header(w io.Writer, o options, laps, legs int) {
	fmt.Fprintf(w, "# saad benchmark: workload=%s seed=%d seconds=%g trace=%t quick=%t\n",
		o.workload, o.seed, o.seconds, o.trace, o.quick)
	fmt.Fprintf(w, "# machine: cpu=%q nproc=%d gomaxprocs=%d %s commit=%s\n",
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	fmt.Fprintf(w, "# replay: %d laps in %d legs; all sockets are loopback (127.0.0.1), nothing leaves the machine\n",
		laps, legs)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB is the process's resident set right now; 0 where /proc does not
// say.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// usage is a snapshot of the process-wide counters a leg is charged by.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcCount uint32
	gcPause time.Duration
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCount: ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}
