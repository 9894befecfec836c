"""Runtime layer: configuration, the hot paths and the durable backends.

See :mod:`repro.runtime.kernel` for the runtime configuration,
:mod:`repro.runtime.interceptors` for the publish and request-for-details
hot paths and :mod:`repro.runtime.backends` for the durable events index
and audit log (each over a :class:`~repro.storage.segment.SegmentedLog`,
which group-commits its records).
"""
