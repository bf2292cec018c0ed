module krum/benchmark

go 1.24

require krum v0.0.0

replace krum => ../
