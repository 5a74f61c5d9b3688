package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostInfo identifies the machine, toolchain and code a result was
// measured with. Two results are comparable only when their host
// fields agree; otherwise a difference is a host delta.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit identifies the code under test: the git revision when the
	// checkout has one, else a digest of its Go sources.
	Commit string `json:"commit"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("%q/nproc=%d/gomaxprocs=%d/%s/%s", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
}

// sameHost reports whether two fingerprints name the same machine and
// toolchain (the code may differ: that is what a comparison measures).
func (h hostInfo) sameHost(o hostInfo) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func fingerprint() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID returns the checkout's git HEAD revision, or "src:" and a
// digest of every Go source and go.mod outside the benchmark's own
// directory and build output.
func commitID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if rev, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return "git:" + strings.TrimSpace(string(rev))
			}
		} else {
			return "git:" + ref
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && (d.Name() == "perfbench" || strings.HasPrefix(d.Name(), ".")) && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is the full-result line a run prints before its final line.
type record struct {
	Workload string            `json:"record"`
	Host     hostInfo          `json:"host"`
	Metrics  map[string]metric `json:"metrics"`
	Valid    bool              `json:"valid"`
}

// readRecords collects the record lines of saved benchmark output.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"`) || !strings.Contains(string(line), `"record":`) {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Valid { // an invalid run is not a measurement
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// cmdCompare prints, per workload and metric, the median of B against
// the median of A, with a verdict against the bounds in BENCHMARK.json
// (read from the current directory when present). When the two sides
// were measured on different hosts every difference is labelled a host
// delta, never a regression.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare needs two files of saved benchmark output")
	}
	a, err := readRecords(args[0])
	if err != nil {
		return err
	}
	b, err := readRecords(args[1])
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("no records in %s or %s", args[0], args[1])
	}
	var spec benchSpec
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	for _, line := range compareRecords(a, b, spec) {
		fmt.Println(line)
	}
	return nil
}

// compareRecords renders one line per metric both sides measured.
func compareRecords(a, b []record, spec benchSpec) []string {
	sameHost := true
	for _, ra := range a {
		for _, rb := range b {
			sameHost = sameHost && ra.Host.sameHost(rb.Host)
		}
	}
	type key struct{ workload, metric string }
	collect := func(rs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	ma, mb := collect(a), collect(b)
	var keys []key
	for k := range ma {
		if _, ok := mb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var out []string
	for _, k := range keys {
		va, vb := median(ma[k]), median(mb[k])
		rel := (vb - va) / va
		verdict := "unbounded"
		for _, m := range spec.EndToEnd {
			if m.Name != k.metric {
				continue
			}
			worse := rel
			if m.Better == "higher" {
				worse = -rel
			}
			switch {
			case worse > m.Bound:
				verdict = "regression"
			case -worse > m.Bound:
				verdict = "improvement"
			default:
				verdict = "within-bound"
			}
		}
		if !sameHost {
			verdict = "host-delta"
		}
		out = append(out, fmt.Sprintf("%-20s %-34s %14.6g %14.6g %+8.2f%% %s", k.workload, k.metric, va, vb, 100*rel, verdict))
	}
	return out
}
