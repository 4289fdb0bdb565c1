// Query log release: publish the most frequent search queries of a day
// under differential privacy — the Korolova et al. scenario the paper
// benchmarks its noise against, but in streaming memory. String queries are
// handled by the dictionary-backed StringSketch.
//
//	go run ./examples/querylog
package main

import (
	"fmt"

	"dpmg"
	"dpmg/internal/workload"
)

func main() {
	const (
		vocab = 50_000  // distinct queries the dictionary can hold
		n     = 800_000 // queries in the day's log
		k     = 256
	)

	// Synthetic Zipf-shaped log (real logs are Zipf-like; internal/workload's
	// package doc gives the substitution rationale) with human-readable
	// query strings.
	items, dict := workload.QueryLog(n, vocab, 1.15, 99)

	sk := dpmg.NewStringSketch(k, vocab)
	for _, q := range items {
		if err := sk.Update(dict.Name(q)); err != nil {
			panic(err)
		}
	}

	p := dpmg.Params{Eps: 1.0, Delta: 1e-7}
	released, err := sk.ReleaseTop(p, dpmg.WithSeed(7))
	if err != nil {
		panic(err)
	}

	fmt.Printf("private query board (%d of %d sketch slots survived the threshold):\n",
		len(released), k)
	for i, qc := range released {
		if i == 15 {
			fmt.Printf("  ... %d more\n", len(released)-15)
			break
		}
		fmt.Printf("  %2d. %-12s ~%8.0f searches\n", i+1, qc.Name, qc.Count)
	}

	// The threshold guarantees rare queries — potentially identifying — are
	// suppressed: anything below ~1+2ln(3/delta)/eps never appears.
	fmt.Printf("suppression threshold: %.1f\n", p.Threshold())
}
