"""Pipeline builders wiring datasets, transforms, DataLoader, and trainer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.lotustrace.logfile import PathLike, TraceSink, open_trace_log
from repro.data.backends import THREAD_BACKEND
from repro.data.dataloader import DataLoader
from repro.data.dataset import BlobImageDataset
from repro.datasets.synthetic import (
    SyntheticCoco,
    SyntheticImageNet,
    SyntheticKits19,
    VolumePairDataset,
)
from repro.errors import ReproError
from repro.runtime.device import make_gpus
from repro.runtime.model import (
    GeneralizedRCNNLike,
    ModelProfile,
    ResNet18Like,
    UNet3DLike,
)
from repro.runtime.trainer import EpochReport, Trainer
from repro.tensor.collate import default_collate
from repro.transforms import (
    Cast,
    Compose,
    DetNormalize,
    DetRandomHorizontalFlip,
    DetResize,
    DetToTensor,
    GaussianNoise,
    Normalize,
    RandBalancedCrop,
    RandomBrightnessAugmentation,
    RandomFlip,
    RandomHorizontalFlip,
    RandomResizedCrop,
    ToTensor,
)
from repro.workloads.config import SMOKE, ScaleProfile

IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)


def detection_collate(samples: Sequence[Tuple[Any, dict]]) -> Tuple[Any, List[dict]]:
    """Stack images; keep per-image target dicts as a list (variable boxes)."""
    images = default_collate([image for image, _ in samples])
    targets = [target for _, target in samples]
    return images, targets


@dataclass
class PipelineBundle:
    """A ready-to-run workload: loader + trainer + optional trace sink."""

    name: str
    loader: DataLoader
    trainer: Trainer
    model: ModelProfile
    log_target: Union[PathLike, TraceSink, None]

    def run_epoch(self, max_batches: Optional[int] = None) -> EpochReport:
        return self.trainer.train_epoch(self.loader, max_batches=max_batches)


def build_ic_pipeline(
    dataset: Optional[SyntheticImageNet] = None,
    profile: ScaleProfile = SMOKE,
    batch_size: Optional[int] = None,
    num_workers: int = 1,
    n_gpus: int = 1,
    log_file: Union[PathLike, TraceSink, None] = None,
    seed: int = 0,
    pin_memory: bool = True,
    remote_latency_s: float = 0.0,
    remote_bandwidth_mb_s: float = 0.0,
    batched_execution: Optional[bool] = None,
    worker_backend: str = THREAD_BACKEND,
) -> PipelineBundle:
    """Image classification: the paper's Listing 1 pipeline.

    ``remote_latency_s``/``remote_bandwidth_mb_s`` put the blobs behind a
    :class:`~repro.datasets.filestore.SimulatedRemoteStore`, modeling the
    paper's iSCSI-mounted dataset: the Loader then includes remote read
    time that extra DataLoader workers can overlap (the Figure 6 worker
    sweep).
    """
    if dataset is None:
        dataset = SyntheticImageNet(profile.ic_images, seed=seed)
    # One shared sink for transforms, dataset, and loader: buffered
    # writers flush at epoch boundaries, and a single writer per process
    # keeps the flush atomic per chunk of whole lines.
    log_file = open_trace_log(log_file)
    transform = Compose(
        [
            RandomResizedCrop(profile.ic_crop, seed=seed),
            RandomHorizontalFlip(seed=seed + 1),
            ToTensor(),
            Normalize(IMAGENET_MEAN, IMAGENET_STD),
        ],
        log_transform_elapsed_time=log_file,
    )
    blobs: Any = dataset.blobs
    if remote_latency_s > 0 or remote_bandwidth_mb_s > 0:
        from repro.datasets.filestore import SimulatedRemoteStore

        blobs = SimulatedRemoteStore(
            dataset.blobs,
            base_latency_s=remote_latency_s,
            bandwidth_mb_s=remote_bandwidth_mb_s,
        )
    data = BlobImageDataset(
        blobs, labels=dataset.labels, transform=transform, log_file=log_file
    )
    loader = DataLoader(
        data,
        batch_size=batch_size if batch_size is not None else profile.ic_batch_size,
        shuffle=True,
        num_workers=num_workers,
        pin_memory=pin_memory,
        log_file=log_file,
        seed=seed,
        batched_execution=batched_execution,
        worker_backend=worker_backend,
    )
    model = ResNet18Like(profile.model_scale)
    trainer = Trainer(make_gpus(n_gpus), model)
    return PipelineBundle("image_classification", loader, trainer, model, log_file)


def build_is_pipeline(
    cases: Optional[SyntheticKits19] = None,
    profile: ScaleProfile = SMOKE,
    num_workers: int = 2,
    n_gpus: int = 1,
    log_file: Union[PathLike, TraceSink, None] = None,
    seed: int = 0,
    batched_execution: Optional[bool] = None,
    worker_backend: str = THREAD_BACKEND,
) -> PipelineBundle:
    """Image segmentation: KiTS19-style volumes through the MLPerf chain."""
    if cases is None:
        cases = SyntheticKits19(profile.is_cases, seed=seed)
    # One shared sink for transforms, dataset, and loader: buffered
    # writers flush at epoch boundaries, and a single writer per process
    # keeps the flush atomic per chunk of whole lines.
    log_file = open_trace_log(log_file)
    transform = Compose(
        [
            RandBalancedCrop(profile.is_patch, oversampling=0.4, seed=seed),
            RandomFlip(seed=seed + 1),
            Cast(np.uint8),
            RandomBrightnessAugmentation(seed=seed + 2),
            GaussianNoise(seed=seed + 3),
        ],
        log_transform_elapsed_time=log_file,
    )
    data = VolumePairDataset(cases, transform=transform, log_file=log_file)
    loader = DataLoader(
        data,
        batch_size=profile.is_batch_size,
        shuffle=True,
        num_workers=num_workers,
        pin_memory=False,
        log_file=log_file,
        seed=seed,
        batched_execution=batched_execution,
        worker_backend=worker_backend,
    )
    model = UNet3DLike(profile.model_scale)
    trainer = Trainer(make_gpus(n_gpus), model)
    return PipelineBundle("image_segmentation", loader, trainer, model, log_file)


def build_od_pipeline(
    dataset: Optional[SyntheticCoco] = None,
    profile: ScaleProfile = SMOKE,
    num_workers: int = 2,
    n_gpus: int = 1,
    log_file: Union[PathLike, TraceSink, None] = None,
    seed: int = 0,
    batched_execution: Optional[bool] = None,
    worker_backend: str = THREAD_BACKEND,
) -> PipelineBundle:
    """Object detection: like IC but Resize instead of resize-and-crop."""
    if dataset is None:
        dataset = SyntheticCoco(profile.od_images, seed=seed)
    # One shared sink for transforms, dataset, and loader: buffered
    # writers flush at epoch boundaries, and a single writer per process
    # keeps the flush atomic per chunk of whole lines.
    log_file = open_trace_log(log_file)

    class _CocoDataset(BlobImageDataset):
        """Pairs each decoded image with its detection target."""

        def __init__(self, coco: SyntheticCoco, transform, log_file) -> None:
            super().__init__(coco.blobs, transform=None, log_file=log_file)
            self._targets = coco.targets
            self._det_transform = transform

        def __getitem__(self, index: int):
            image, _ = super().__getitem__(index)
            sample = (image, self._targets[index])
            if self._det_transform is not None:
                sample = self._det_transform(sample)
            return sample

    transform = Compose(
        [
            DetResize(profile.od_resize),
            DetRandomHorizontalFlip(seed=seed + 1),
            DetToTensor(),
            DetNormalize(IMAGENET_MEAN, IMAGENET_STD),
        ],
        log_transform_elapsed_time=log_file,
    )
    data = _CocoDataset(dataset, transform, log_file)
    loader = DataLoader(
        data,
        batch_size=profile.od_batch_size,
        shuffle=True,
        num_workers=num_workers,
        collate_fn=detection_collate,
        log_file=log_file,
        seed=seed,
        batched_execution=batched_execution,
        worker_backend=worker_backend,
    )
    model = GeneralizedRCNNLike(profile.model_scale)
    trainer = Trainer(make_gpus(n_gpus), model)
    return PipelineBundle("object_detection", loader, trainer, model, log_file)
