package server

import (
	"context"
	"errors"

	"zbp/internal/equiv"
)

// DiffRequest is the POST /v1/diff body: run the differential
// equivalence harness (internal/equiv) over a Configs x Workloads grid
// and report every divergence. A deployment smoke test for the
// simulator itself — the service-side twin of cmd/zdiff.
type DiffRequest struct {
	Configs      []string `json:"configs,omitempty"` // default ["z15"]
	Workloads    []string `json:"workloads"`         // required
	Seed         *uint64  `json:"seed,omitempty"`    // default 42
	Instructions int      `json:"instructions,omitempty"`
	TimeoutMs    int      `json:"timeout_ms,omitempty"`
	// Checks selects a subset of equiv.CheckNames(); empty runs all.
	Checks []string `json:"checks,omitempty"`
	// Perturb deliberately corrupts predictor state so operators can
	// verify end to end that the harness detects real divergence; a
	// perturbed run reporting zero divergences means the check layer is
	// broken.
	Perturb bool `json:"perturb,omitempty"`
}

// DiffFinding is one reported divergence.
type DiffFinding struct {
	Check  string `json:"check"`
	Metric string `json:"metric,omitempty"`
	Detail string `json:"detail"`
}

// DiffCell is one grid point's verdict.
type DiffCell struct {
	Config   string        `json:"config"`
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Checks   int           `json:"checks"`
	OK       bool          `json:"ok"`
	Findings []DiffFinding `json:"findings,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// DiffResponse is the POST /v1/diff reply, cells in grid order.
type DiffResponse struct {
	Cells       []DiffCell `json:"cells"`
	Divergences int        `json:"divergences"`
}

// normalizeDiff applies diff defaults in place and validates,
// returning the resolved seed and the grid size. Shared by the sync
// handler and async job submission.
func (s *Server) normalizeDiff(req *DiffRequest) (uint64, int, error) {
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	cells, err := s.normalizeGrid("diff", &req.Configs, req.Workloads, 1, &req.Instructions)
	if err != nil {
		return 0, 0, err
	}
	if err := equiv.ValidateChecks(req.Checks); err != nil {
		return 0, 0, err
	}
	return seed, cells, nil
}

// diff runs the harness through the executor and tallies divergences.
// A patient caller (a job) waits out a full local queue.
func (s *Server) diff(ctx context.Context, req DiffRequest, seed uint64, patient bool, onCell func(DiffCell)) (DiffResponse, error) {
	for {
		cells, err := s.exec.Diff(ctx, req, seed, onCell)
		if err == nil {
			resp := DiffResponse{Cells: cells}
			for _, c := range cells {
				if !c.OK {
					resp.Divergences++
					s.DiffDivergences.Add(1)
				}
			}
			return resp, nil
		}
		if !patient || !errors.Is(err, errQueueFull) {
			return DiffResponse{}, err
		}
		if err := pause(ctx); err != nil {
			return DiffResponse{}, err
		}
	}
}

// diffCellOf converts one harness cell result to the API shape.
func diffCellOf(cr equiv.CellResult) DiffCell {
	cell := DiffCell{
		Config:   cr.Cell.Config,
		Workload: cr.Cell.Workload,
		Seed:     cr.Cell.Seed,
		Checks:   len(cr.Checks),
		OK:       cr.OK(),
	}
	if cr.Err != nil {
		cell.Error = cr.Err.Error()
	}
	for _, f := range cr.Findings() {
		cell.Findings = append(cell.Findings, DiffFinding{
			Check: f.Check, Metric: f.Metric, Detail: f.Detail,
		})
	}
	return cell
}
