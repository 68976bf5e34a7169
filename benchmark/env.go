package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// envBlock stamps every output with what the numbers depend on besides
// the code. Two outputs compare only when the first five fields agree.
type envBlock struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitCommit    string  `json:"git_commit"`
	Seed         uint64  `json:"seed"`
	Sleep100usMs float64 `json:"sleep_100us_ms"`
}

func readEnv(root string, seed uint64) envBlock {
	return envBlock{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitCommit:    gitCommit(root),
		Seed:         seed,
		Sleep100usMs: sleepQuantum(),
	}
}

// sleepQuantum is the measured mean of 200 time.Sleep(100µs) calls, in
// ms. An idle server worker sleeps exactly that call between polls, so
// this is how long a request can wait for a worker to wake up: on a
// kernel with a coarse timer it, not the code, sets lat_p99_us.
func sleepQuantum() float64 {
	const n = 200
	t0 := time.Now()
	for i := 0; i < n; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	return float64(time.Since(t0).Microseconds()) / 1e3 / n
}

// gitCommit reads the checked-out commit from .git without running git;
// "unknown" outside a repository (the driver's checkouts are not one).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if strings.HasSuffix(line, " "+ref) {
			return strings.Fields(line)[0]
		}
	}
	return "unknown"
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json (the repository root).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
