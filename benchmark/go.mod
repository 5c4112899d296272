module nok/benchmark

go 1.24

require nok v0.0.0

replace nok => ../
