package zbp_test

import (
	"context"
	"fmt"

	"zbp"
)

// ExampleRun simulates one workload on the z15 model and reads the
// headline metrics. Runs are deterministic, so the output is exact.
func ExampleRun() {
	src, err := zbp.NewWorkload("loops", 42)
	if err != nil {
		panic(err)
	}
	res, err := zbp.Run(zbp.Z15(), src, 100_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("instructions:", res.Instructions())
	fmt.Println("all retired:", res.Instructions() == 100_000)
	fmt.Println("well predicted:", res.Accuracy() > 0.95)
	// Output:
	// instructions: 100000
	// all retired: true
	// well predicted: true
}

// ExampleGenerations walks the four modeled machine generations.
func ExampleGenerations() {
	for _, g := range zbp.Generations() {
		fmt.Printf("%s: BTB1 %dK entries\n", g.Name, g.BTB1.Capacity()/1024)
	}
	// Output:
	// zEC12: BTB1 4K entries
	// z13: BTB1 8K entries
	// z14: BTB1 8K entries
	// z15: BTB1 16K entries
}

// ExampleNewSim runs two threads in SMT2 mode.
func ExampleNewSim() {
	a, _ := zbp.NewWorkload("loops", 1)
	b, _ := zbp.NewWorkload("micro", 2)
	s := zbp.NewSim(zbp.Z15(), []zbp.Source{
		zbp.Limit(a, 20_000), zbp.Limit(b, 20_000),
	})
	res, err := s.RunCtx(context.Background(), 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("threads:", len(res.Threads))
	fmt.Println("both finished:", res.Threads[0].Done && res.Threads[1].Done)
	// Output:
	// threads: 2
	// both finished: true
}

// ExampleMaterializeWorkload packs a workload once and replays it:
// the replay's stats are byte-identical to streaming the generator.
func ExampleMaterializeWorkload() {
	p, err := zbp.MaterializeWorkload("lspr", 42, 100_000)
	if err != nil {
		panic(err)
	}
	c := p.Cursor()
	replayed, err := zbp.Run(zbp.Z15(), &c, 100_000)
	if err != nil {
		panic(err)
	}
	src, err := zbp.NewWorkload("lspr", 42)
	if err != nil {
		panic(err)
	}
	streamed, err := zbp.Run(zbp.Z15(), src, 100_000)
	if err != nil {
		panic(err)
	}
	a, _ := replayed.StatsJSON()
	b, _ := streamed.StatsJSON()
	fmt.Println("records:", p.Len())
	fmt.Println("same stats as streaming:", string(a) == string(b))
	// Output:
	// records: 100000
	// same stats as streaming: true
}
