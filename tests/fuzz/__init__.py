"""Cross-backend differential fuzzing.

The compiled ``packed`` backend must agree *bit for bit* with the
``reference`` oracle at all five layers of the code base: good-machine simulation (:mod:`repro.fausim.backends`), forward
implication (:mod:`repro.tdgen.implication`), compiled search kernels
(:mod:`repro.tdgen.search`), fault grading (:mod:`repro.core.verify`) and
TDsim fault simulation (:mod:`repro.tdsim.cpt`).

:mod:`tests.fuzz.harness` generates seeded random cases (circuit, fault
site, vector sequences, partial assignments), checks the agreement across
all layers, and greedily shrinks failing cases before persisting them to
``tests/fuzz/corpus/`` as deterministic regression files.
:mod:`tests.fuzz.test_differential_fuzz` runs a bounded random budget per
test session (extended via ``REPRO_FUZZ_CASES`` under the CI cron job);
:mod:`tests.fuzz.test_corpus` deterministically replays every corpus file.
"""
