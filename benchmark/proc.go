package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux build this benchmark targets.
const clockTicks = 100

// median returns the middle of xs (the mean of the two middles for an
// even count) and NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeSetup runs the set-up at least three times, and again while the
// repetitions have taken less than budget (at most 41 times), so a fast
// set-up's median rests on enough samples. Each repetition runs between
// calibration brackets; teardown, if not nil, undoes one before the
// next, untimed. It returns the median corrected wall time in seconds.
func timeSetup(cal *calibration, budget time.Duration, setup, teardown func() error) (float64, error) {
	var secs []float64
	start := time.Now()
	for {
		wall, slow, err := cal.time(setup)
		if err != nil {
			return 0, err
		}
		secs = append(secs, wall.Seconds()/slow)
		if len(secs) >= 3 && (time.Since(start) >= budget || len(secs) == 41) {
			return median(secs), nil
		}
		if teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
	}
}

// relClose reports whether a and b agree within tol relative to the
// larger magnitude.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-300)
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status in
// megabytes; pid 0 means this process.
func procStatusMB(pid int, key string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// procCPU is the user+system CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// sleepUntil blocks until t. It calls nanosleep directly, on a thread
// whose timer slack is 1 ns: the runtime timer wakes up to a
// millisecond late, and the kernel's default 50 µs slack is a third of
// a small request's round trip. Either would show as load generator
// lag, which latency from the due time includes.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// hashDataset is the sha256 of the dataset's CSV encoding.
func hashDataset(ds *dataset.Dataset) (string, error) {
	h := sha256.New()
	if err := dataset.WriteCSV(h, ds); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashFile is the sha256 of a file's bytes.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
