package experiments

// Experiment is one table or figure of the evaluation (§4) or one of the
// extensions: the name mlv-bench's -only selects it by, and a run that
// computes it and renders it as text. tasks > 0 overrides the workload
// size of the experiments that simulate task sequences at saturation.
type Experiment struct {
	Name string
	Run  func(tasks int) (string, error)
}

// All lists every experiment in the order mlv-bench prints them. It is the
// one place the set is enumerated: the CLI, its usage text and `make
// repro` are loops over it.
func All() []Experiment {
	return []Experiment{
		{"table2", func(int) (string, error) { r, err := Table2(); return FormatTable2(r), err }},
		{"table3", func(int) (string, error) { r, err := Table3(); return FormatTable3(r), err }},
		{"table4", func(int) (string, error) { r, err := Table4(); return FormatTable4(r), err }},
		{"fig11", func(int) (string, error) { r, err := Fig11(); return FormatFig11(r), err }},
		{"fig12", func(tasks int) (string, error) {
			opt := DefaultFig12Options()
			if tasks > 0 {
				opt.NumTasks = tasks
			}
			sum, err := Fig12(opt)
			if err != nil {
				return "", err
			}
			return FormatFig12(sum), nil
		}},
		{"compile", func(int) (string, error) {
			r, err := CompileOverhead(0, nil)
			if err != nil {
				return "", err
			}
			return FormatCompileOverhead(r), nil
		}},
		{"ibuf", func(int) (string, error) { r, err := InstructionBufferFit(); return FormatInstructionBufferFit(r), err }},
		{"ablation", func(int) (string, error) { r, err := AblationPartition(); return FormatAblationPartition(r), err }},
		{"load", func(int) (string, error) { r, err := LoadSweep(7, 200, 1); return FormatLoadSweep(r), err }},
		{"numerics", func(int) (string, error) { r, err := AblationNumerics(); return FormatAblationNumerics(r), err }},
		{"policy", func(tasks int) (string, error) {
			if tasks <= 0 {
				tasks = 200
			}
			r, err := AblationPolicy(tasks, 1)
			return FormatAblationPolicy(r), err
		}},
	}
}
