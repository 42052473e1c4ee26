package main

// recordedAUC holds the held-out AUC each deterministic workload reached
// at the benchmark's run length (-seconds 15), per workload seed. The
// ingest and train models depend only on the seed and the fixed amount of
// work, so any other value is a change in what the model computes.
var recordedAUC = map[string]map[int64]float64{
	"ingest": {
		1:  0.863705551103493,
		2:  0.8443903312548097,
		3:  0.8697024933618523,
		4:  0.8577508776643085,
		5:  0.8545082995412469,
		6:  0.8667145455166936,
		7:  0.8631962357283575,
		8:  0.8541717216903046,
		9:  0.8510628174675853,
		10: 0.8619034902366595,
		11: 0.8940794707199629,
		12: 0.879765765332836,
		13: 0.8733118907287398,
		14: 0.8409270723286825,
		15: 0.8623467496689147,
		16: 0.8843317396089683,
		17: 0.8534445890408329,
		18: 0.8536491227018803,
		19: 0.8528222605391284,
		20: 0.8705178955153428,
	},
	"train": {
		1:  0.9801222144007484,
		2:  0.9838468931651673,
		3:  0.9822613859565922,
		4:  0.9847061356762936,
		5:  0.984088669380253,
		6:  0.9794746114200209,
		7:  0.984715126897618,
		8:  0.9833555189651115,
		9:  0.9844026006668144,
		10: 0.9824476071556411,
		11: 0.983088057494987,
		12: 0.9855248347358943,
		13: 0.9847275207428954,
		14: 0.983822580838419,
		15: 0.9851275955542828,
		16: 0.9849495581750592,
		17: 0.9844623751865639,
		18: 0.9832203464610217,
		19: 0.9840437068277154,
		20: 0.9842094001776078,
	},
}

// recordedSeconds is the run length the table was recorded at.
const recordedSeconds = 15

// checkAUC compares auc with the value recorded for the seed. A seed or
// run length without a record is reported as such and checked only for a
// model that predicts better than chance.
func checkAUC(rep *report, cfg config, workload string, auc float64) {
	want, ok := recordedAUC[workload][cfg.seed]
	if cfg.toy || cfg.seconds != recordedSeconds || !ok {
		rep.check("auc_recorded", auc > 0.5,
			"no value recorded for seed %d at -seconds %d; auc %.17g > 0.5", cfg.seed, cfg.seconds, auc)
		return
	}
	rep.check("auc_recorded", auc == want, "auc %.17g, recorded for seed %d: %.17g", auc, cfg.seed, want)
}
