module sepdl/benchmark

go 1.22

require sepdl v0.0.0

replace sepdl => ../
