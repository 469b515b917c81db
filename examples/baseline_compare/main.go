// Baseline compare: the paper's Fig. 4 in miniature — the proposed
// split framework against Large-Scale Synchronous SGD (the paper's
// comparator) and FedAvg (the related-work de facto standard), on the
// same workload, with measured bytes and accuracy. Both baselines run
// on internal/paramserver's one protocol and differ only in what a
// client pushes (a gradient or its weights) and how the server applies
// it.
//
//	go run ./examples/baseline_compare
package main

import (
	"fmt"
	"log"

	"medsplit/internal/experiment"
)

func main() {
	cfg := experiment.Config{
		Arch:         experiment.ArchVGG,
		Classes:      10,
		Width:        4,
		TrainSamples: 480,
		TestSamples:  120,
		Platforms:    4,
		Rounds:       32,
		TotalBatch:   32,
		EvalEvery:    8,
		Seed:         3,
		// FedAvg takes 4 local steps per round; with 1 local step it is
		// mathematically identical to synchronous SGD (the average of
		// one-step models equals one step on the averaged gradient).
		LocalSteps: 4,
	}
	cmp, err := experiment.Fig4MeasuredWithFedAvg(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cmp.Table())
	fmt.Println(experiment.CurveTable(cmp.Results...))
	fmt.Println("Reading: at the same round schedule the split framework moves far fewer")
	fmt.Println("bytes than either full-model exchange scheme, because it ships first-layer")
	fmt.Println("activations instead of the whole parameter set.")
}
