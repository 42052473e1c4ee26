package dmfsgd

import (
	"fmt"
	"io"

	"dmfsgd/internal/dataset"
	"dmfsgd/internal/multiclass"
)

// Dataset is a ground-truth pairwise performance matrix with metadata.
// Construct one with NewMeridianDataset, NewHarvardDataset,
// NewHPS3Dataset, LoadDataset, or dataset loaders.
//
// A Dataset is the *static* half of a session: topology, evaluation
// ground truth, default τ. What the nodes measure flows through the
// ingestion layer's Source seam — NewSession(ds, …) is the adapter
// wrapping a dataset in its canonical measurement source, and
// NewSessionFromSource accepts any stream (scenario-decorated sampling,
// NDJSON captures, custom generators) over the same dataset.
type Dataset = dataset.Dataset

// NewMeridianDataset generates the Meridian-like static RTT dataset with n
// nodes (0 = the original 2500).
func NewMeridianDataset(n int, seed int64) *Dataset {
	return dataset.Meridian(dataset.MeridianConfig{N: n, Seed: seed})
}

// NewHarvardDataset generates the Harvard-like dynamic RTT dataset: n
// nodes (0 = the original 226) plus a timestamped measurement trace of the
// given length (0 = 250,000).
func NewHarvardDataset(n, measurements int, seed int64) *Dataset {
	return dataset.Harvard(dataset.HarvardConfig{N: n, Measurements: measurements, Seed: seed})
}

// NewHPS3Dataset generates the HP-S3-like available-bandwidth dataset with
// n nodes (0 = the original 231).
func NewHPS3Dataset(n int, seed int64) *Dataset {
	return dataset.HPS3(dataset.HPS3Config{N: n, Seed: seed})
}

// LoadDataset parses a whitespace-separated matrix (one row per line,
// "nan" or negative values marking missing entries) as a dataset of the
// given metric.
func LoadDataset(r io.Reader, name string, metric Metric) (*Dataset, error) {
	m, err := dataset.ReadMatrix(r)
	if err != nil {
		return nil, err
	}
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("dmfsgd: matrix must be square, got %dx%d", m.Rows(), m.Cols())
	}
	return dataset.FromMatrix(name, metric, m, 0), nil
}

// MulticlassResult is the outcome of a multiclass simulation.
type MulticlassResult struct {
	// Exact is the exact-class accuracy; WithinOne allows one level of
	// error; MAE is the mean absolute class error.
	Exact, WithinOne, MAE float64
	// Confusion[t][p] counts test pairs of true class t predicted p
	// (class 0 = best).
	Confusion [][]int
}

// SimulateMulticlass trains the multiclass extension (§7 future work of
// the paper): len(thresholds)+1 ordered performance classes separated by
// the given thresholds (strictest first: ascending for RTT, descending
// for ABW). Evaluation is over the unmeasured pairs, like the binary
// experiments. Invalid thresholds or hyper-parameters are reported with
// an error wrapping ErrInvalidConfig.
func SimulateMulticlass(ds *Dataset, thresholds []float64, cfg Config, seed int64) (MulticlassResult, error) {
	mcfg := multiclass.Config{
		SGD:        cfg.sgdConfig(),
		Thresholds: thresholds,
		Metric:     ds.Metric,
	}
	res, err := multiclass.RunSim(ds, mcfg, ds.DefaultK, 20, seed)
	if err != nil {
		return MulticlassResult{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return MulticlassResult{
		Exact:     res.Accuracy.Exact,
		WithinOne: res.Accuracy.WithinOne,
		MAE:       res.Accuracy.MAE,
		Confusion: res.Confusion,
	}, nil
}
