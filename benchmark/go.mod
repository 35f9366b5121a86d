module road/benchmark

go 1.24

require road v0.0.0

replace road => ../
