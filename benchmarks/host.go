package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"gridqr/internal/blas"
)

// fingerprint identifies the host and build a document was measured on.
// The two roofs (CopyGBps, DgemmGflops) are measured in the same run as
// the numbers they sit beside.
type fingerprint struct {
	NProc       int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	BlasWorkers int               `json:"blas_workers"`
	CPUModel    string            `json:"cpu_model"`
	Caches      map[string]string `json:"caches"`
	LLCBytes    int64             `json:"llc_bytes"`
	GoVersion   string            `json:"go_version"`
	GOOS        string            `json:"goos"`
	GOARCH      string            `json:"goarch"`
	GOGC        string            `json:"gogc"`
	GitCommit   string            `json:"git_commit"`
	Seed        int64             `json:"seed"`
	CopyGBps    float64           `json:"matrix.copy_gbps,omitempty"`
	CopyBytes   float64           `json:"matrix.copy_bytes,omitempty"`
	DgemmGflops float64           `json:"blas.dgemm_gflops,omitempty"`
}

// defaultLLCBytes stands in when the host does not expose its cache
// sizes (non-Linux, restricted sysfs); the fingerprint then has no
// "caches" entries, which marks the figure as assumed.
const defaultLLCBytes = 32 << 20

func hostFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BlasWorkers: blas.Workers(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOGC:        os.Getenv("GOGC"),
		GitCommit:   gitCommit(),
		Seed:        seed,
	}
	if fp.GOGC == "" {
		fp.GOGC = "100 (default)"
	}
	fp.Caches, fp.LLCBytes = cacheSizes()
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's cache hierarchy from sysfs and returns it with
// the size of the largest level.
func cacheSizes() (map[string]string, int64) {
	caches := make(map[string]string)
	llc := int64(0)
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		size := read("size")
		if size == "" {
			continue
		}
		caches["L"+read("level")+" "+read("type")] = size
		if b := parseSize(size); b > llc {
			llc = b
		}
	}
	if llc == 0 {
		llc = defaultLLCBytes
	}
	return caches, llc
}

// parseSize reads sysfs cache sizes such as "2048K" or "260M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// gitCommit is the revision `go build` stamped into the binary; a
// checkout that is not a git repository (or `go run`/`go test`, which do
// not stamp) reads "unknown".
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB; where /proc is missing it falls back to the Go runtime's total
// obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
