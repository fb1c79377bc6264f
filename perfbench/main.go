// Command perfbench measures commdb end to end in CPU time over three
// workloads and, with -trace 1, layer by layer. See README.md for the
// workloads, the metrics and what each layer metric should move.
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the lines
// before it are informational JSON objects (host, input make-up, wall
// clock references).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run is what every workload reports: the result plus informational
// sections printed before it.
type run struct {
	result
	info map[string]any
}

func newRun() *run {
	return &run{result: result{Correct: true, Metrics: metrics{}}, info: map[string]any{}}
}

// fail marks the run incorrect: an output contradicted a property the
// method must have.
func (r *run) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, scan or live")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measured query stream")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	host := startHostMeter()
	var r *run
	var err error
	switch o.workload {
	case "paper":
		r, err = runPaper(o)
	case "scan":
		r, err = runScan(o)
	case "live":
		r, err = runLive(o)
	default:
		fatalf("unknown --workload %q (want paper, scan or live)", o.workload)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	r.info["host"] = host.info()
	if o.trace {
		r.info["cpu_clock_read_ns"] = clockReadCost()
	}
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit(map[string]any{k: r.info[k]})
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatalf("%s: metric %s was not measured", o.workload, name)
		}
	}
	emit(r.result)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding output: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
