module paravis/benchmark

go 1.22

require paravis v0.0.0

replace paravis => ../
