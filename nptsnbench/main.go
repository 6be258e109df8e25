// Command nptsnbench is the repository benchmark. One invocation runs one
// named workload from a seed, checks every plan the planner or the service
// returned, and prints the metrics as the last line of standard output:
//
//	nptsnbench --workload serve-replan --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 the
// workload runs twice in the same process, untraced and then traced, the
// results of both are asserted identical, and the line carries the
// per-layer metrics derived from the spans the benchmark recorded around
// its calls into each layer. Spans are written to
// .bench_build/traces/<workload>-seed<n>.jsonl.
//
// The benchmark measures from outside the program: it calls only public
// package APIs, the service's HTTP surface on a loopback listener, /metrics,
// and the service's Events/Progress observers.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run; every workload reports all
// of them. The unit of work is an ORION training epoch on train-orion and
// one submitted request on the serving workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_gmean_ms", "ms"},
	{"plan_cost_mean", "cost"},
	{"certified_frac", "ratio"},
}

// perLayer are the metrics of a traced run; layers a workload does not
// exercise report 0.
var perLayer = []metricDef{
	{"core.epoch_s", "s"},
	{"core.explore_s", "s"},
	{"core.env_step_us", "us"},
	{"core.env_steps", "count"},
	{"core.env_resets", "count"},
	{"core.warm_seed_solved_ratio", "ratio"},
	{"rl.update_s", "s"},
	{"rl.update_gflop", "GFLOP"},
	{"rl.update_gflops", "GFLOP/s"},
	{"rl.pi_iters", "count"},
	{"rl.update_share", "ratio"},
	{"nn.forward_us", "us"},
	{"failure.analyze_s", "s"},
	{"failure.cache_hit_ratio", "ratio"},
	{"nbf.calls", "count"},
	{"nbf.recover_us", "us"},
	{"zoo.hit_ratio", "ratio"},
	{"zoo.rollout_ms", "ms"},
	{"zoo.env_steps", "count"},
	{"certify.audit_ms", "ms"},
	{"serialize.decode_us", "us"},
	{"serialize.encode_us", "us"},
	{"service.submit_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms.zoo", "ms"},
	{"service.run_ms.warm", "ms"},
	{"service.run_ms.trained", "ms"},
	{"service.cache_p50_ms", "ms"},
	{"service.zoo_p50_ms", "ms"},
	{"service.warm_p50_ms", "ms"},
	{"service.trained_p50_ms", "ms"},
	{"service.p99_ms", "ms"},
	{"service.tier_mismatch", "count"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.coverage_min", "ratio"},
	{"trace.spans", "count"},
}

// scale selects the problem sizes: "full" is the benchmark, "tiny" is the
// seconds-long smoke the package tests run.
type scale string

const (
	scaleFull scale = "full"
	scaleTiny scale = "tiny"
)

// opts are the parsed command-line options.
type opts struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    scale
	// Dir is the checkout root; temporary directories and trace files go
	// under Dir/.bench_build.
	Dir string
}

// workload runs one named workload.
type workload struct {
	Name string
	Run  func(o opts) (*outcome, error)
}

var workloads = []workload{
	{"train-orion", runTrainORION},
	{"serve-replan", runServeReplan},
	{"serve-train", runServeTrain},
}

// gate counts what the correctness gate saw.
type gate struct {
	Sent          int `json:"sent"`
	Succeeded     int `json:"succeeded"`
	Failed        int `json:"failed"`
	Refused       int `json:"refused"`
	TierMismatch  int `json:"tierMismatched"`
	VerifyFailed  int `json:"verifyFailed"`
	CertifyFailed int `json:"certifyFailed"`
}

// outcome is what a workload run returns.
type outcome struct {
	Gate    gate
	Metrics map[string]float64
	// Params records the workload's parameters (rates, clients, geometry,
	// budgets) for the run record.
	Params map[string]interface{}
	// Spans are the traced run's spans (nil untraced).
	Spans []span
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nptsnbench:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], dir, os.Stdout, os.Stderr))
}

// run executes one invocation with dir as the checkout root and returns
// the exit code.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "nptsnbench:", err)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].Name == o.Workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "nptsnbench: unknown workload %q\n", o.Workload)
		return 2
	}
	o.Dir = dir
	runtime.GOMAXPROCS(runtime.NumCPU())

	out, err := w.Run(o)
	if err != nil {
		fmt.Fprintf(stderr, "nptsnbench: %s: %v\n", o.Workload, err)
		return 1
	}
	if o.Trace {
		if err := writeSpans(o, out.Spans); err != nil {
			fmt.Fprintln(stderr, "nptsnbench: writing spans:", err)
			return 1
		}
	}
	rec := runRecord(o, out)
	line, err := json.Marshal(map[string]interface{}{"record": rec})
	if err != nil {
		fmt.Fprintln(stderr, "nptsnbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))

	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.Gate.VerifyFailed == 0 && out.Gate.CertifyFailed == 0,
		Attempted: out.Gate.Sent,
		Failed:    out.Gate.Failed + out.Gate.Refused,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "nptsnbench: %s did not measure %s\n", o.Workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: finite(v), Unit: d.Unit}
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "nptsnbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "nptsnbench: %d plans failed re-verification, %d failed certification\n",
			out.Gate.VerifyFailed, out.Gate.CertifyFailed)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (opts, error) {
	fset := flag.NewFlagSet("nptsnbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		o     opts
		trace int
		sc    string
	)
	fset.StringVar(&o.Workload, "workload", "", "workload name (train-orion, serve-replan, serve-train)")
	fset.Int64Var(&o.Seed, "seed", 1, "seed every input of the run is generated from")
	fset.Float64Var(&o.Seconds, "seconds", 20, "length of the measured window in seconds")
	fset.IntVar(&trace, "trace", 0, "1 runs the workload untraced and traced and reports per-layer metrics")
	fset.StringVar(&sc, "scale", string(scaleFull), "problem sizes: full, or tiny for smoke tests")
	if err := fset.Parse(args); err != nil {
		return opts{}, err
	}
	if fset.NArg() > 0 {
		return opts{}, fmt.Errorf("unexpected arguments %q", fset.Args())
	}
	if trace != 0 && trace != 1 {
		return opts{}, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.Seed <= 0 {
		return opts{}, fmt.Errorf("--seed must be positive, got %d", o.Seed)
	}
	if o.Seconds <= 0 || o.Seconds > maxSeconds {
		return opts{}, fmt.Errorf("--seconds must be in (0, %d], got %v", maxSeconds, o.Seconds)
	}
	o.Trace = trace == 1
	o.Scale = scale(sc)
	if o.Scale != scaleFull && o.Scale != scaleTiny {
		return opts{}, fmt.Errorf("--scale must be full or tiny, got %q", sc)
	}
	return o, nil
}

// finite maps the +Inf that a failed request contributes to a percentile
// onto the largest float JSON can carry.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return math.MaxFloat64
	}
	return v
}

// buildDir is where the run keeps temporary directories and trace files.
func (o opts) buildDir() string { return filepath.Join(o.Dir, ".bench_build") }

// tempDir creates a fresh directory for one server life, zoo or journal.
func (o opts) tempDir(prefix string) (string, error) {
	root := filepath.Join(o.buildDir(), "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

func writeSpans(o opts, spans []span) error {
	dir := filepath.Join(o.buildDir(), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.Workload, o.Seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range exportSpans(spans) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRecord describes the machine, the source and the workload parameters.
func runRecord(o opts, out *outcome) map[string]interface{} {
	rec := map[string]interface{}{
		"workload":   o.Workload,
		"seed":       o.Seed,
		"seconds":    o.Seconds,
		"trace":      o.Trace,
		"scale":      string(o.Scale),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(o.Dir),
		"gate":       out.Gate,
		"params":     out.Params,
	}
	return rec
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when the build had
// one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source file and go.mod of the planner
// module, so that records from checkouts without version control still
// name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// timedSetup runs setup reps times, tearing down every instance but the
// last, and returns the last instance with the median set-up time.
func timedSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		// Each repetition starts from a collected heap, so that none pays
		// for collecting its predecessors' garbage.
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(v)
			continue
		}
		inst = v
	}
	// Start the measured window from a collected heap, so that the garbage
	// of the torn-down instances neither pads the peak RSS nor sets off a
	// collection inside the window.
	runtime.GC()
	debug.FreeOSMemory()
	return inst, median(times), nil
}

// fixedSeed seeds the fixed part of every workload: the problem instances
// that setup trains on (the ORION instance, zoo policies, base plans) and
// the planning seed of every job. --seed draws the traffic: which requests
// are sent, in which order, with which fresh specs and deltas. Keeping the
// trained instances fixed keeps the plan-quality guard comparable across
// seeds, since one unlucky base plan or training draw would otherwise move
// plan_cost_mean by more than any code change under test.
const fixedSeed = 1

// maxSeconds is the longest measured window the workloads can generate
// distinct traffic for (serve-replan's flow-removal deltas are finite).
const maxSeconds = 60

// setupReps is how many times a run sets up, so that setup_s is a median.
const setupReps = 3

// sleepUntil waits until t or until ctx is done, whichever comes first.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
