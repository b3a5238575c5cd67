"""Data loading substrate (the "torch.utils.data" layer).

Reimplements the PyTorch DataLoader machinery the paper instruments, with
the same internal structure: a ``worker_loop`` driving dataset *fetchers*,
one index queue per worker, a data queue back to the main process
(shared by thread workers, one per process worker), startup
prefetching governed by ``prefetch_factor``, and out-of-order arrival
caching with pinning in the main process. Batch dispatch has two modes
(DESIGN.md §12): ``scheduler="static"`` keeps the paper's § II-B policy —
round-robin index replenishment to the worker that produced the consumed
batch — and is the bit-exact parity oracle; ``"stealing"`` dispatches
the oldest undispatched batch to the least-loaded worker with a free
claim slot at payload receipt. Both yield bit-identical batches —
batch→RNG keying makes results independent of which worker executes a
batch.

LotusTrace hooks live at exactly the points the paper identifies:

* the worker loop wraps the fetcher's common ``fetch`` method ([T1]) —
  rather than subclassing per-fetcher;
* the main process wraps ``_next_data`` ([T2]), marking out-of-order
  batches with a 1 us wait — and emits one ``sched`` record per yielded
  batch (queue depth, steals, prefetch depth) for every mode.
"""

from repro.data.dataloader import DataLoader
from repro.data.faults import (
    FaultInjectingDataset,
    FaultPlan,
    FaultSite,
)
from repro.data.resilience import FailurePolicy, FaultStats
from repro.data.transport import (
    TRANSPORT_AUTO,
    TRANSPORT_CHOICES,
    ShmBatchRef,
    TensorDesc,
    TransportSpec,
)
from repro.data.worker import PartialBatch, WorkerHeartbeat
from repro.data.dataset import (
    BlobImageDataset,
    Dataset,
    ImageFolder,
    IterableDataset,
    TensorDataset,
    pil_loader,
)
from repro.data.fetcher import (
    _IterableDatasetFetcher,
    _MapDatasetFetcher,
    create_fetcher,
)
from repro.data.sampler import (
    BatchSampler,
    DispatchOrderBook,
    RandomSampler,
    SequentialSampler,
)
from repro.data.scheduler import (
    SCHEDULER_CHOICES,
    StealingScheduler,
)
from repro.data.worker_info import (
    ShardedIterableDataset,
    WorkerInfo,
    get_worker_info,
)

__all__ = [
    "BatchSampler",
    "BlobImageDataset",
    "DataLoader",
    "Dataset",
    "FailurePolicy",
    "FaultInjectingDataset",
    "FaultPlan",
    "FaultSite",
    "FaultStats",
    "DispatchOrderBook",
    "SCHEDULER_CHOICES",
    "StealingScheduler",
    "ImageFolder",
    "PartialBatch",
    "ShmBatchRef",
    "TensorDesc",
    "TransportSpec",
    "TRANSPORT_AUTO",
    "TRANSPORT_CHOICES",
    "WorkerHeartbeat",
    "IterableDataset",
    "RandomSampler",
    "SequentialSampler",
    "ShardedIterableDataset",
    "TensorDataset",
    "WorkerInfo",
    "get_worker_info",
    "_IterableDatasetFetcher",
    "_MapDatasetFetcher",
    "create_fetcher",
    "pil_loader",
]
