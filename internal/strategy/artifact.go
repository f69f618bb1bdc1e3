package strategy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
)

// An Artifact is a strategy promoted to a first-class, persistable object:
// the plan itself plus the metadata needed to rebuild its evaluation
// context (model, cluster size, mini-batch) and to audit where it came
// from (planner, search statistics, recorded evaluations). It is the
// on-disk hand-off of the paper's Figure 3 — the optimizer emits an
// "optimized GPP training strategy" that the distributed runtime consumes
// — and the unit a planning service stores, serves, and re-evaluates.
//
// The wire format is versioned JSON. Version bumps are explicit:
// DecodeArtifact rejects versions it does not understand with
// ErrUnknownVersion rather than guessing, so stale tooling fails loudly.
const ArtifactVersion = 1

// Sentinel errors for artifact decoding and checking. Wrapped errors add
// context; test with errors.Is.
var (
	// ErrCorruptArtifact marks data that does not parse as an artifact.
	ErrCorruptArtifact = errors.New("strategy: corrupt artifact")
	// ErrUnknownVersion marks an artifact written by an incompatible
	// format version.
	ErrUnknownVersion = errors.New("strategy: unknown artifact version")
	// ErrUnknownPlanner marks an artifact whose planner name is not
	// registered in this process.
	ErrUnknownPlanner = errors.New("strategy: unknown planner")
)

// PlanOptions records the result-relevant planning knobs a strategy was
// searched under. It mirrors the subset of planner.Options that changes
// which strategy comes out — worker counts, timeouts, and profiling flags
// deliberately have no field here, because the planners are deterministic
// across them (pinned by the determinism tests) and two runs differing
// only in those knobs produce the same plan.
//
// The zero value means "every planner default". Values are recorded
// literally: a request that spells out a planner's default (e.g.
// MaxMicroBatch 4096) fingerprints differently from one that leaves the
// field zero, because this package cannot know other packages' defaults.
type PlanOptions struct {
	// ForcedMicroBatch restricts the search to one micro-batch size.
	ForcedMicroBatch int `json:"forced_micro_batch,omitempty"`
	// MaxMicroBatch caps the candidate micro-batch sizes.
	MaxMicroBatch int `json:"max_micro_batch,omitempty"`
	// PerStageMicroBatch enables the fine-grained per-stage search.
	PerStageMicroBatch bool `json:"per_stage_micro_batch,omitempty"`
	// DisableSinkAnchoredSplits removes the merge-anchored partitions.
	DisableSinkAnchoredSplits bool `json:"disable_sink_anchored_splits,omitempty"`
}

// PlannerMeta records how the strategy was produced.
type PlannerMeta struct {
	// Name is the planner-registry key ("graphpipe", "pipedream", ...).
	Name string `json:"name"`
	// SearchSeconds is the planning wall-clock time.
	SearchSeconds float64 `json:"search_seconds,omitempty"`
	// DPStates counts dynamic-programming subproblems explored.
	DPStates int `json:"dp_states,omitempty"`
	// BinaryIters is the largest number of binary-search iterations any
	// one micro-batch search made (graphpipe only).
	BinaryIters int `json:"binary_iters,omitempty"`
	// WarmStarted records that the search imported a prior DP memo
	// snapshot. Provenance only: a warm-started plan is byte-identical
	// to a cold one, so the field — like the other search statistics —
	// is excluded from Fingerprint.
	WarmStarted bool `json:"warm_started,omitempty"`
	// MemoEntriesReused counts imported memo entries the search reused.
	MemoEntriesReused int `json:"memo_entries_reused,omitempty"`
}

// EvalMeta records one evaluation of the strategy, so an artifact carries
// the numbers it was shipped with and a re-evaluation can be diffed
// against them.
type EvalMeta struct {
	// Backend is the eval-registry key ("sim", "runtime").
	Backend string `json:"backend"`
	// IterationTime is the evaluated per-iteration virtual time in
	// seconds.
	IterationTime float64 `json:"iteration_seconds"`
	// Throughput is the evaluated samples/second.
	Throughput float64 `json:"throughput"`
}

// Artifact is the persistable plan: strategy + provenance.
type Artifact struct {
	// Version is the wire-format version; EncodeArtifact stamps it.
	Version int `json:"version"`
	// Model names the computation graph the strategy partitions (a
	// models.Build name, e.g. "mmt").
	Model string `json:"model"`
	// Branches is the model's branch-count override (0: model default).
	Branches int `json:"branches,omitempty"`
	// Devices is the cluster size the strategy was planned for.
	Devices int `json:"devices"`
	// Topology is the canonical topology spec the strategy was planned
	// for; empty means the default Summit preset at Devices (the only
	// topology artifacts could describe before the field existed, so old
	// artifacts decode — and fingerprint — unchanged).
	Topology string `json:"topology,omitempty"`
	// MiniBatch is B (duplicated from the strategy for inspection without
	// decoding it).
	MiniBatch int `json:"mini_batch"`
	// Planner records the producing search.
	Planner PlannerMeta `json:"planner"`
	// Options records the result-relevant planning knobs (zero value:
	// every planner default). Always serialized — encoding/json cannot
	// elide struct values — as "options": {} when defaulted.
	Options PlanOptions `json:"options"`
	// Evals records evaluations of the strategy, in the order they ran.
	Evals []EvalMeta `json:"evals,omitempty"`
	// Strategy is the plan itself.
	Strategy *Strategy `json:"strategy"`
}

// EncodeArtifact stamps the current version and renders the artifact as
// indented JSON (artifacts are meant to be diffed and code-reviewed).
func EncodeArtifact(a *Artifact) ([]byte, error) {
	if a.Strategy == nil {
		return nil, fmt.Errorf("strategy: artifact without a strategy")
	}
	a.Version = ArtifactVersion
	if a.MiniBatch == 0 {
		a.MiniBatch = a.Strategy.MiniBatch
	}
	if a.Planner.Name == "" {
		a.Planner.Name = a.Strategy.Planner
	}
	return json.MarshalIndent(a, "", "  ")
}

// DecodeArtifact parses a versioned artifact. It distinguishes the three
// load-time failure classes: data that is not an artifact at all
// (ErrCorruptArtifact), a version this build does not speak
// (ErrUnknownVersion), and structurally valid artifacts missing their
// strategy (also ErrCorruptArtifact). Planner-name and graph/topology
// validation are separate steps — CheckPlanner and Strategy.Validate —
// because they need context (registries, the rebuilt graph) the decoder
// does not have.
func DecodeArtifact(data []byte) (*Artifact, error) {
	// Probe the version before decoding the body so a future format's
	// artifact reports "unknown version", not a field-level JSON error.
	var probe struct {
		Version *int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptArtifact, err)
	}
	if probe.Version == nil {
		return nil, fmt.Errorf("%w: missing version field", ErrCorruptArtifact)
	}
	if *probe.Version != ArtifactVersion {
		return nil, fmt.Errorf("%w: got %d, this build speaks %d",
			ErrUnknownVersion, *probe.Version, ArtifactVersion)
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptArtifact, err)
	}
	if a.Strategy == nil {
		return nil, fmt.Errorf("%w: missing strategy", ErrCorruptArtifact)
	}
	return &a, nil
}

// Fingerprint returns the artifact's content-addressed identity: a hex
// SHA-256 over the canonical planning request — model, branches, devices,
// topology, mini-batch, planner name, and the result-relevant
// PlanOptions. Two
// artifacts share a fingerprint exactly when they answer the same planning
// question, so the fingerprint is the cache key a planning service stores
// and serves plans under, and `graphpipe plan` prints it so the CLI and
// the daemon agree on identity.
//
// Recorded evaluations, search statistics (wall-clock, DP states), and the
// strategy bytes themselves are deliberately excluded: they are outputs,
// not identity, and including them would make a warm cache lookup
// impossible before planning. Zero MiniBatch or an empty planner name fall
// back to the embedded strategy's values, matching EncodeArtifact.
//
// The preimage layout is versioned independently of ArtifactVersion
// ("fp1\n" prefix): hashing is stable across artifact-format bumps unless
// the identity fields themselves change meaning.
func (a *Artifact) Fingerprint() string {
	mb := a.MiniBatch
	plannerName := a.Planner.Name
	if a.Strategy != nil {
		if mb == 0 {
			mb = a.Strategy.MiniBatch
		}
		if plannerName == "" {
			plannerName = a.Strategy.Planner
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "fp1\nmodel=%s\nbranches=%d\ndevices=%d\nmini_batch=%d\nplanner=%s\n",
		a.Model, a.Branches, a.Devices, mb, plannerName)
	fmt.Fprintf(h, "forced_micro_batch=%d\nmax_micro_batch=%d\nper_stage_micro_batch=%t\ndisable_sink_anchored_splits=%t\n",
		a.Options.ForcedMicroBatch, a.Options.MaxMicroBatch,
		a.Options.PerStageMicroBatch, a.Options.DisableSinkAnchoredSplits)
	// The topology line is appended only when a non-default topology is
	// set, so every pre-existing (Summit) artifact keeps its historical
	// fingerprint and no persisted plan cache is invalidated.
	if a.Topology != "" {
		fmt.Fprintf(h, "topology=%s\n", a.Topology)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// VerifyArtifactBytes decodes serialized artifact bytes and checks that
// their content hashes to the fingerprint they were requested or filed
// under. It is the one verification every byte-serving cache tier runs —
// the service's disk store on read, a fleet daemon on a peer cache-fill —
// so corrupted, hand-edited, or misdirected artifact bytes always degrade
// to a miss instead of being served under the wrong identity.
func VerifyArtifactBytes(fp string, data []byte) (*Artifact, error) {
	a, err := DecodeArtifact(data)
	if err != nil {
		return nil, err
	}
	if got := a.Fingerprint(); got != fp {
		return nil, fmt.Errorf("artifact filed under %s hashes to %s (misfiled or edited)", fp, got)
	}
	return a, nil
}

// CheckPlanner verifies the artifact's planner name against the caller's
// registered planner names (typically planner.Names(); the strategy
// package cannot import the registry without a cycle). An artifact from a
// build with planners this process lacks fails with ErrUnknownPlanner.
func (a *Artifact) CheckPlanner(registered []string) error {
	for _, name := range registered {
		if a.Planner.Name == name {
			return nil
		}
	}
	return fmt.Errorf("%w: %q (registered: %v)", ErrUnknownPlanner, a.Planner.Name, registered)
}

// Validate checks the embedded strategy against the rebuilt graph and
// topology (C1–C4) and the artifact's own metadata for consistency.
func (a *Artifact) Validate(g *graph.Graph, topo *cluster.Topology) error {
	if a.Strategy == nil {
		return fmt.Errorf("%w: missing strategy", ErrCorruptArtifact)
	}
	if a.Devices != 0 && a.Devices != topo.Len() {
		return fmt.Errorf("strategy: artifact planned for %d devices, topology has %d",
			a.Devices, topo.Len())
	}
	if a.MiniBatch != 0 && a.MiniBatch != a.Strategy.MiniBatch {
		return fmt.Errorf("strategy: artifact mini-batch %d disagrees with strategy %d",
			a.MiniBatch, a.Strategy.MiniBatch)
	}
	return a.Strategy.Validate(g, topo)
}
