module netfence/benchmark

go 1.22

require netfence v0.0.0

replace netfence => ../
