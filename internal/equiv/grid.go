package equiv

import (
	"context"

	"zbp/internal/rcache"
	"zbp/internal/runner"
)

// CheckGrid evaluates every cell, fanning out across at most
// parallelism workers (<=0 means GOMAXPROCS). Results come back in
// cell order and are identical at any parallelism: each cell builds
// all of its own state, exactly like runner.Pool jobs, which share the
// same fan-out (runner.Each). Cancellation is cooperative — cells not
// yet started return with Err set to ctx.Err(), in-flight cells stop
// at their next simulation poll.
func CheckGrid(ctx context.Context, cells []rcache.CellSpec, opts Options, parallelism int) []CellResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]CellResult, len(cells))
	runner.Each(ctx, len(cells), parallelism, func(i int) {
		results[i] = CheckCell(ctx, cells[i], opts)
	}, func(i int) {
		results[i] = CellResult{Cell: cells[i], Err: ctx.Err()}
	})
	return results
}
