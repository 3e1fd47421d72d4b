package paretomon_test

import (
	"fmt"

	paretomon "repro"
)

// Example_parallel shards ingestion with WithWorkers. Clusters (or
// users, for Baseline) are partitioned across the workers, each
// maintaining its slice of the frontiers independently, so deliveries
// are identical to the sequential engines; AddBatch runs the shards of
// a whole batch in parallel. The branch cut
// here is above any attainable similarity, so each of the three users is
// its own cluster and the request for four workers clamps to three.
func Example_parallel() {
	s := paretomon.NewSchema("brand", "CPU")
	com := paretomon.NewCommunity(s)
	for _, spec := range []struct {
		name   string
		brands []string
	}{
		{"alice", []string{"Apple", "Lenovo", "Toshiba"}},
		{"bob", []string{"Lenovo", "Toshiba", "Apple"}},
		{"carol", []string{"Toshiba", "Apple", "Lenovo"}},
	} {
		u, _ := com.AddUser(spec.name)
		_ = u.PreferChain("brand", spec.brands...)
		_ = u.PreferChain("CPU", "quad", "dual", "single")
	}

	mon, _ := paretomon.NewMonitor(com,
		paretomon.WithAlgorithm(paretomon.AlgorithmFilterThenVerify),
		paretomon.WithBranchCut(1000),
		paretomon.WithWorkers(4),
	)
	ds, _ := mon.AddBatch([]paretomon.Object{
		{Name: "mac", Values: []string{"Apple", "dual"}},
		{Name: "think", Values: []string{"Lenovo", "quad"}},
		{Name: "tosh", Values: []string{"Toshiba", "single"}},
	})
	for _, d := range ds {
		fmt.Println(d.Object, d.Users)
	}
	fmt.Println("workers:", mon.Stats().Workers)
	// Output:
	// mac [alice bob carol]
	// think [alice bob carol]
	// tosh [carol]
	// workers: 3
}
