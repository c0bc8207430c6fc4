module semkg/benchmark

go 1.24

require semkg v0.0.0

replace semkg => ../
