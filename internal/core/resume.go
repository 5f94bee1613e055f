package core

import (
	"context"

	"goingwild/internal/churn"
	"goingwild/internal/scanner"
)

// SeriesStore is the persistence seam between the study and the
// checkpoint layer: the study records progress documents through it and
// polls it for orderly-stop requests, without importing the on-disk
// format. checkpoint.Runner satisfies it; tests use in-memory fakes.
type SeriesStore interface {
	// Update stores v as the named document and persists a checkpoint
	// generation. It is called from scan workers mid-sweep, so it must
	// be safe under concurrency.
	Update(name string, v any) error
	// Fetch decodes the named document into v (ok=false when absent).
	Fetch(name string, v any) (bool, error)
	// Drop removes the named document from the state; the removal
	// reaches disk with the next persisted generation.
	Drop(name string)
	// CheckStop returns checkpoint.ErrStopped when an orderly stop has
	// been requested; scan code calls it right after a successful save
	// so the run unwinds with the just-saved state intact.
	CheckStop() error
}

// Checkpoint document names used by the resumable series. One store may
// back several studies only if their sections never run concurrently.
const (
	seriesDocName = "series"
	sweepDocName  = "series-sweep"
)

// SeriesCheckpoint is the committed cursor of a resumable weekly
// series: every epoch before Cursor is applied into Tracker, and the
// next sweep to run is week Cursor. It is saved by the stream's
// EpochCommit hook, so a crash between commits re-runs at most one
// week's apply (and the sweep itself resumes from sweepDocName).
type SeriesCheckpoint struct {
	Cursor  int                `json:"cursor"`
	Tracker churn.TrackerState `json:"tracker"`
}

// weekSweepState tags a scanner sweep checkpoint with the week it
// belongs to, so a resume can tell an in-flight week's progress from a
// stale document left by a crash racing the cursor commit.
type weekSweepState struct {
	Week int                     `json:"week"`
	Ck   scanner.SweepCheckpoint `json:"ck"`
}

// SweepAtResumeContext is SweepAtContext with crash-safe resume: same
// week clock, same seed schedule, same result, but sweep progress flows
// through rc (see scanner.SweepResumeContext). A nil rc degrades to the
// plain sweep.
func (s *Study) SweepAtResumeContext(ctx context.Context, week int, rc *scanner.ResumeControl) (*scanner.SweepResult, error) {
	s.SetWeek(week)
	return s.Scanner.SweepResumeContext(ctx, s.Cfg.Order, s.Cfg.ScanSeed+uint32(week)*7919, s.World.ScanBlacklist(), rc)
}
