// Command lpmtrain runs the offline rule-set preparation stage (§4): it
// reads a textual rule-set, converts it to ranges, bucketizes, trains the
// RQRMI model and serializes the model for later use by lpmquery.
//
// Usage:
//
//	lpmtrain -rules rules.txt -width 32 -bucket 8 -model model.bin [-workers N] [-verify]
//
// Training is a deterministic fit (internal/rqrmi/fit.go): there is nothing
// to tune, and the same rules give the same model.bin byte for byte whatever
// -workers says.
package main

import (
	"flag"
	"fmt"
	"os"

	"neurolpm/internal/core"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
)

func main() {
	rulesPath := flag.String("rules", "", "rule-set file (required)")
	width := flag.Int("width", 32, "key bit width")
	bucket := flag.Int("bucket", 8, "ranges per bucket; 0 = SRAM-only design")
	modelPath := flag.String("model", "", "serialized model output file")
	workers := flag.Int("workers", 0, "training workers (0 = GOMAXPROCS); the model does not depend on it")
	verify := flag.Bool("verify", false, "run the full analytical verification after training")
	flag.Parse()

	if *rulesPath == "" {
		fatal("-rules is required")
	}
	rs, err := lpm.ReadRuleFile(*width, *rulesPath)
	if err != nil {
		fatal("%v", err)
	}
	mcfg := rqrmi.DefaultConfig()
	mcfg.Workers = *workers

	eng, err := core.Build(rs, core.Config{BucketSize: *bucket, Model: mcfg})
	if err != nil {
		fatal("%v", err)
	}
	st := eng.TrainStats()
	usage := eng.SRAMUsage()
	fmt.Printf("rules:        %d (%d-bit)\n", rs.Len(), rs.Width)
	fmt.Printf("ranges:       %d\n", eng.Ranges().Len())
	fmt.Printf("train time:   %v\n", st.Duration.Round(1e6))
	fmt.Printf("max err:      %d\n", st.MaxErr())
	fmt.Printf("model size:   %d bytes\n", eng.Model().SizeBytes())
	fmt.Printf("SRAM (model): %d bytes\n", usage.Model)
	fmt.Printf("SRAM (RQ):    %d bytes\n", usage.RQArray)
	fmt.Printf("DRAM:         %d bytes\n", eng.DRAMFootprint())

	if *verify {
		if err := eng.Verify(); err != nil {
			fatal("verification failed: %v", err)
		}
		fmt.Println("verification: OK (error bounds hold for all inputs)")
	}
	if *modelPath != "" {
		f, err := os.Create(*modelPath)
		if err != nil {
			fatal("%v", err)
		}
		n, err := eng.Model().WriteTo(f)
		if err != nil {
			fatal("%v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("model:        %s (%d bytes)\n", *modelPath, n)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpmtrain: "+format+"\n", args...)
	os.Exit(1)
}
